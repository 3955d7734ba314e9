//! Ablation — sharer-vector format under the Cuckoo tag organization.
//!
//! Section 6 notes the Cuckoo organization composes with any entry format;
//! this ablation quantifies the area/energy trade-off of the four formats
//! implemented in `ccd-sharers` on a 4-way 1x Cuckoo tag store at 64 and
//! 1024 cores (Shared-L2 model).

use crate::Context;
use ccd_common::{json::Json, obj};
use ccd_energy::{DirOrg, EnergyModel};
use ccd_sharers::SharerFormat;

/// The analytical-model organization corresponding to a 4-way, 1x Cuckoo tag
/// store with the given entry format; `None` for formats the scaling model
/// does not plot (limited pointers appear only via their entry width).
fn org_for(format: SharerFormat) -> Option<DirOrg> {
    let (ways, provisioning) = (4, 1.0);
    match format {
        SharerFormat::FullVector => Some(DirOrg::SparseFullVector { ways, provisioning }),
        SharerFormat::LimitedPointer => None,
        SharerFormat::Coarse => Some(DirOrg::cuckoo_coarse_shared()),
        SharerFormat::Hierarchical => Some(DirOrg::CuckooHierarchical { ways, provisioning }),
    }
}

pub fn run(context: &Context) -> Vec<Json> {
    let model = EnergyModel::shared_l2();
    let grid: Vec<(usize, SharerFormat)> = [64usize, 1024]
        .into_iter()
        .flat_map(|cores| SharerFormat::all().map(|format| (cores, format)))
        .collect();
    let rows = context.runner.map(&grid, |&(cores, format)| {
        let point = org_for(format).map(|org| model.evaluate(&org, cores));
        obj! {
            "format": format.to_string(),
            "cores": cores,
            "entry_bits": format.entry_bits(2 * cores),
            "energy_percent": point.map(|p| p.energy_relative * 100.0),
            "area_percent": point.map(|p| p.area_relative * 100.0),
        }
    });
    vec![Json::Arr(rows)]
}
