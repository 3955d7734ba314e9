//! Headline efficiency ratios quoted in the paper's abstract, introduction
//! and conclusion (Sections 1 and 7), derived from the same analytical
//! model as Figures 4/13.

use crate::Context;
use ccd_common::{json::Json, obj};
use ccd_energy::{DirOrg, EnergyModel};

pub fn run(_: &Context) -> Vec<Json> {
    let shared = EnergyModel::shared_l2();
    let private = EnergyModel::private_l2();
    let (cuckoo_shared, cuckoo_private) = (
        DirOrg::cuckoo_coarse_shared(),
        DirOrg::cuckoo_coarse_private(),
    );
    let sparse8 = DirOrg::SparseCoarse {
        ways: 8,
        provisioning: 8.0,
    };
    let rows = [
        (
            "1024 cores: energy advantage over Tagless (Shared-L2)",
            "up to 80x",
            shared.energy_advantage(&cuckoo_shared, &DirOrg::Tagless, 1024),
        ),
        (
            "1024 cores: area advantage over Sparse 8x Coarse (Shared-L2)",
            "~7x",
            shared.area_advantage(&cuckoo_shared, &sparse8, 1024),
        ),
        (
            "1024 cores: energy advantage over Sparse 8x Coarse (Shared-L2)",
            "11-24%",
            shared.energy_advantage(&cuckoo_shared, &sparse8, 1024),
        ),
        (
            "16 cores: energy advantage over Duplicate-Tag (Private-L2)",
            "up to 16x",
            private.energy_advantage(&cuckoo_private, &DirOrg::DuplicateTag, 16),
        ),
        (
            "16 cores: area advantage over Sparse 8x Coarse (Private-L2)",
            "up to 6x",
            private.area_advantage(&cuckoo_private, &sparse8, 16),
        ),
        (
            "1024 cores: Cuckoo area as % of L2 (Shared-L2)",
            "< 3%",
            shared.evaluate(&cuckoo_shared, 1024).area_relative * 100.0,
        ),
        (
            "1024 cores: Cuckoo area as % of L2 (Private-L2)",
            "< 30%",
            private.evaluate(&cuckoo_private, 1024).area_relative * 100.0,
        ),
    ]
    .map(|(claim, paper_value, measured)| {
        obj! { "claim": claim, "paper_value": paper_value, "measured": measured }
    });
    vec![Json::Arr(rows.to_vec())]
}
