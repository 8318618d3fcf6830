//! Experiment runners, one per table/figure of the paper's evaluation.
//!
//! | id | paper artifact | module |
//! |----|----------------|--------|
//! | `fig04`/`fig05` | Stock range throughput / memory | [`real_world`] |
//! | `fig06`/`fig07` | Sensor range throughput / memory | [`real_world`] |
//! | `fig08`–`fig11` | Synthetic range lookups + breakdowns | [`lookup`] |
//! | `fig12`–`fig15` | Synthetic point lookups + breakdowns | [`lookup`] |
//! | `fig16`–`fig18` | error_bound × noise sweeps | [`sweeps`] |
//! | `fig19`/`fig20` | index/total memory | [`space`] |
//! | `fig21`/`fig22` | construction / insertion | [`construction`] |
//! | `fig23` | online reorganization trace | [`reorg`] |
//! | `fig24` | disk-based RDBMS (paged substrate) | [`disk`] |
//! | `fig25` | correlation-type taxonomy | [`correlation_types`] |
//! | `table1` | ML model training times | [`correlation_types`] |
//! | `fig27_30` | Correlation Maps comparison | [`cm_compare`] |

pub mod cm_compare;
pub mod construction;
pub mod correlation_types;
pub mod disk;
pub mod lookup;
pub mod real_world;
pub mod reorg;
pub mod space;
pub mod sweeps;

use crate::harness::Scale;

/// All experiment ids in paper order.
pub const ALL: &[&str] = &[
    "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
    "fig24", "fig25", "table1", "fig27_30",
];

/// Dispatch an experiment by id. Returns false for unknown ids.
pub fn run(id: &str, scale: Scale) -> bool {
    match id {
        "fig04" => real_world::fig04_stock_range(scale),
        "fig05" => real_world::fig05_stock_memory(scale),
        "fig06" => real_world::fig06_sensor_range(scale),
        "fig07" => real_world::fig07_sensor_memory(scale),
        "fig08" => lookup::fig08_09_synth_range(scale, false),
        "fig09" => lookup::fig08_09_synth_range(scale, true),
        "fig10" => lookup::fig10_11_range_breakdown(scale, true),
        "fig11" => lookup::fig10_11_range_breakdown(scale, false),
        "fig12" => lookup::fig12_13_point_lookup(scale, false),
        "fig13" => lookup::fig12_13_point_lookup(scale, true),
        "fig14" => lookup::fig14_15_point_breakdown(scale, true),
        "fig15" => lookup::fig14_15_point_breakdown(scale, false),
        "fig16" => sweeps::fig16_error_bound_throughput(scale),
        "fig17" => sweeps::fig17_false_positive_ratio(scale),
        "fig18" => sweeps::fig18_memory(scale),
        "fig19" => space::fig19_index_memory(scale),
        "fig20" => space::fig20_total_memory(scale),
        "fig21" => construction::fig21_construction_threads(scale),
        "fig22" => construction::fig22_insertion(scale),
        "fig23" => reorg::fig23_reorg_trace(scale),
        "fig24" => disk::fig24_disk_rdbms(scale),
        "fig25" => correlation_types::fig25_correlation_types(scale),
        "table1" => correlation_types::table1_ml_training(scale),
        "fig27_30" => cm_compare::fig27_30_cm_comparison(scale),
        _ => return false,
    }
    true
}
