//! Figure 4 — area and energy scalability of prior directory organizations
//! (the motivation figure: no Cuckoo directory yet).
//!
//! The figure's x-axis counts two caches per core (split I+D L1s) and the
//! legend includes the in-cache design, so this experiment uses the
//! Shared-L2 analytical model; the same sweep with the Private-L2 model is
//! part of Figure 13.

use crate::Context;
use ccd_common::{json::Json, obj};
use ccd_energy::{DirOrg, EnergyModel};

/// `(label, energy %, area %)` of every organization over the paper's core
/// counts, fanned across the runner's workers (Figures 4 and 13).
pub fn series(
    context: &Context,
    model: &EnergyModel,
    orgs: &[DirOrg],
) -> Vec<(String, Vec<f64>, Vec<f64>)> {
    let cores = EnergyModel::paper_core_counts();
    context.runner.map(orgs, |org| {
        let points = model.sweep(org, &cores);
        (
            org.label(),
            points.iter().map(|p| p.energy_relative * 100.0).collect(),
            points.iter().map(|p| p.area_relative * 100.0).collect(),
        )
    })
}

pub fn run(context: &Context) -> Vec<Json> {
    let cores = EnergyModel::paper_core_counts();
    let rows = series(context, &EnergyModel::shared_l2(), &DirOrg::figure4_set())
        .into_iter()
        .map(|(organization, energy_percent, area_percent)| {
            obj! {
                "organization": organization,
                "cores": cores,
                "energy_percent": energy_percent,
                "area_percent": area_percent,
            }
        })
        .collect();
    vec![Json::Arr(rows)]
}
