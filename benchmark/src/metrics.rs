//! The metric tables: names, units, directions and regression bounds.
//! `/BENCHMARK.json` repeats them for the driver; a unit test keeps the two
//! in step.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may get worse before it
    /// counts as a regression.
    pub bound: f64,
}

/// What a user of the executors sees, measured at `W` workers with every
/// tracing and counting option off.
///
/// The bounds are set from measured spreads, not wishes: over ten seeds on
/// the 2-vCPU build host the inter-quartile range of `exec_p50_ms` is 1-9 %
/// of its median, and the whole machine changes speed with its neighbours:
/// between two sets of ten runs forty minutes apart the medians of
/// `exec_p50_ms` moved by 4-16 % on four workloads and by 28 % on the
/// allocation-heavy `heat-fine-ondemand`, the serial walk moving with them
/// (so `speedup_vs_serial` moved by 1-11 %). A bound has to clear what the
/// host does to unchanged code or it rejects unchanged code.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "exec_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "exec_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "nodes_per_s",
        unit: "nodes/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "speedup_vs_serial",
        unit: "x",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Single-layer metrics, prefixed with the crate they measure. Each
/// workload's traced run reports all of them on its own input; a layer that
/// is not on a workload's path reports 0 there.
pub const PER_LAYER: [PerLayer; 53] = [
    layer("runtime.deque.push_pop_ns", "ns", Lower),
    layer("runtime.deque.push_batch_pop_ns", "ns", Lower),
    layer("runtime.deque.steal_ns", "ns", Lower),
    layer("runtime.deque.steal_batch_ns", "ns", Lower),
    layer("runtime.pool.spawn_chain_ns", "ns", Lower),
    layer("runtime.pool.spawn_wide_ns", "ns", Lower),
    layer("runtime.pool.spawn_batch_ns", "ns", Lower),
    layer("runtime.pool.dispatch_us", "us", Lower),
    layer("runtime.pool.new_ms", "ms", Lower),
    layer("runtime.steal_attempts", "count", Lower),
    layer("runtime.steal_successes", "count", Lower),
    layer("runtime.steal_success_ratio", "ratio", Higher),
    layer("runtime.batch_stolen_tasks", "count", Lower),
    layer("runtime.arena_hit_ratio", "ratio", Higher),
    layer("runtime.tasks_executed", "count", Lower),
    layer("runtime.idle_s", "s", Lower),
    layer("runtime.first_work_wait_ms", "ms", Lower),
    layer("runtime.trace.overhead_pct", "%", Lower),
    layer("runtime.trace.events_recorded", "count", Lower),
    layer("runtime.trace.events_dropped", "count", Lower),
    layer("core.static.p1_overhead_ns_per_node", "ns", Lower),
    layer("core.dynamic.p1_overhead_ns_per_node", "ns", Lower),
    layer("core.static.empty_ns_per_node", "ns", Lower),
    layer("core.dynamic.empty_ns_per_node", "ns", Lower),
    layer("core.nodes_per_task", "ratio", Higher),
    layer("core.sched_overhead_s", "s", Lower),
    layer("core.sched_overhead_pct", "%", Lower),
    layer("core.count_remote_delta_pct", "%", Lower),
    layer("core.record_trace_delta_pct", "%", Lower),
    layer("core.remote_pct", "%", Lower),
    layer("workloads.kernel_s", "s", Lower),
    layer("workloads.kernel_inflation_pct", "%", Lower),
    layer("workloads.kernel_ns_per_node", "ns", Lower),
    layer("workloads.build_ms", "ms", Lower),
    layer("workloads.webgraph_ms", "ms", Lower),
    layer("autocolor.select_ms", "ms", Lower),
    layer("autocolor.select_us_per_knode", "us", Lower),
    layer("autocolor.recursive_bisection_ms", "ms", Lower),
    layer("autocolor.cp_level_aware_ms", "ms", Lower),
    layer("autocolor.bfs_locality_ms", "ms", Lower),
    layer("autocolor.block_contiguous_ms", "ms", Lower),
    layer("autocolor.est_makespan", "ticks", Lower),
    layer("autocolor.edge_cut_frac", "ratio", Lower),
    layer("autocolor.imbalance", "ratio", Lower),
    layer("taskgraph.estimate_strict_ms", "ms", Lower),
    layer("taskgraph.level_profile_ms", "ms", Lower),
    layer("taskgraph.build_ms", "ms", Lower),
    layer("lint.lint_graph_ms", "ms", Lower),
    layer("numasim.simulate_ms", "ms", Lower),
    layer("numasim.predicted_speedup", "x", Higher),
    layer("numasim.pred_over_measured", "ratio", Lower),
    layer("color_p50_ms", "ms", Lower),
    layer("failed_ops_pct", "%", Lower),
];

/// Measured values by metric name, in insertion order.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of the result line: every metric of `table`
    /// (name, unit) with its value. A metric the run did not set, or set to
    /// a non-finite number, is a bug in the benchmark.
    pub fn to_json(&self, table: &[(&'static str, &'static str)]) -> Json {
        Json::obj(table.iter().map(|&(name, unit)| {
            let value = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is {value}");
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        }))
    }
}

/// `(name, unit)` of every end-to-end metric, in table order.
pub fn end_to_end_table() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

/// `(name, unit)` of every per-layer metric, in table order.
pub fn per_layer_table() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use std::collections::BTreeSet;

    /// Whether `s` is a legal metric or workload name: starts with a letter or
    /// digit, at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `s` is a legal unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_use_the_allowed_characters_and_are_unique() {
        let mut seen = BTreeSet::new();
        let all = end_to_end_table()
            .into_iter()
            .chain(per_layer_table())
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")));
        for (name, unit) in all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for bad in ["", "-x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(!valid_unit("") && !valid_unit("×") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn setup_has_the_largest_bound_and_no_bound_exceeds_a_quarter() {
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25 && m.bound <= setup.bound,
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn values_serialize_in_table_order_with_units() {
        let mut v = Values::default();
        for (i, (name, _)) in end_to_end_table().into_iter().enumerate() {
            v.set(name, i as f64 + 0.5);
        }
        let json = v.to_json(&end_to_end_table());
        assert_eq!(json.members().len(), END_TO_END.len());
        assert_eq!(json.members()[0].0, "setup_s");
        let first = &json.members()[0].1;
        assert_eq!(first.get("value").and_then(Json::as_num), Some(0.5));
        assert_eq!(first.get("unit").and_then(Json::as_str), Some("s"));
    }
}
