//! The scenario registry: every figure/table reproduction, one module
//! each, registered in render order.
//!
//! A scenario only declares runs and formats their outcomes. Nothing in
//! this module simulates; a scenario that needs a different tier than the
//! campaign's requests its run on that tier. CI's `lint` job fails if a
//! non-comment line here names a simulator entry point.
//!
//! Scenario names are the stable CLI surface of `lf-bench run` and match
//! the committed `results/<name>.txt` tables.

mod area_power;
mod assoc_sensitivity;
mod bloom_ablation;
mod dynamic_deselect;
mod fig10_granule;
mod fig1_width_sweep;
mod fig6_speedups;
mod fig7_utilization;
mod fig8_ipc_breakdown;
mod fig9_ssb_size;
mod generality;
mod packing_ablation;
mod simpoint_check;
mod simpoint_sampled;
mod table2_categories;
mod table3_comparison;

use super::Scenario;

/// All registered scenarios, in render order.
pub fn all() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(fig1_width_sweep::Fig1WidthSweep),
        Box::new(fig6_speedups::Fig6Speedups),
        Box::new(fig7_utilization::Fig7Utilization),
        Box::new(fig8_ipc_breakdown::Fig8IpcBreakdown),
        Box::new(fig9_ssb_size::Fig9SsbSize),
        Box::new(fig10_granule::Fig10Granule),
        Box::new(table2_categories::Table2Categories),
        Box::new(table3_comparison::Table3Comparison),
        Box::new(assoc_sensitivity::AssocSensitivity),
        Box::new(bloom_ablation::BloomAblation),
        Box::new(dynamic_deselect::DynamicDeselect),
        Box::new(packing_ablation::PackingAblation),
        Box::new(generality::Generality),
        Box::new(area_power::AreaPower),
        Box::new(simpoint_check::SimpointCheck),
        Box::new(simpoint_sampled::SimpointSampled),
    ]
}
