//! Ablations over the design knobs DESIGN.md calls out:
//!
//! * K — the number of colored steal attempts before a random steal;
//! * the forced first colored steal on/off;
//! * the NUMA remote/local cost ratio.
//!
//! `cargo run -p nabbitc-bench --bin ablation_knobs --release`

use nabbitc_bench::{f1, scale_from_env, serial_baseline, Report, SEEDS};
use nabbitc_numasim::{simulate_ws, CostModel, WsConfig};
use nabbitc_runtime::StealPolicy;
use nabbitc_workloads::{registry, BenchId};

fn avg_speedup(
    id: BenchId,
    scale: nabbitc_workloads::Scale,
    p: usize,
    policy: StealPolicy,
    cost: CostModel,
) -> f64 {
    let built = registry::build(id, scale, p);
    let serial = serial_baseline(id, scale);
    let mut total = 0.0;
    for &seed in SEEDS.iter().take(3) {
        let cfg = WsConfig {
            cores: p,
            topology: nabbitc_cost::Topology::paper_machine().truncated(p),
            policy: policy.clone(),
            cost: cost.clone(),
            seed,
        };
        total += simulate_ws(&built.graph, &cfg).speedup(serial);
    }
    total / 3.0
}

fn main() {
    let scale = scale_from_env();
    let p = 80;
    let id = BenchId::Heat;

    let mut rep = Report::new(
        "ablation_knobs",
        &format!("Ablations — heat @ {p} cores (scale {scale:?})"),
    );

    rep.line("## Colored steal attempts (K)\n");
    rep.header(&["K", "forced first", "speedup"]);
    for k in [0usize, 1, 2, 4, 8, 16] {
        for forced in [false, true] {
            let policy = StealPolicy {
                colored_attempts: k,
                match_domain: false,
                force_first_colored: forced,
                first_steal_max_attempts: if forced { 1 << 22 } else { 0 },
            };
            let s = avg_speedup(id, scale, p, policy, CostModel::default());
            rep.row(&[k.to_string(), forced.to_string(), f1(s)]);
        }
    }

    rep.line("\n## Color-match granularity\n");
    rep.header(&["granularity", "speedup"]);
    for (name, policy) in [
        ("exact worker color", StealPolicy::nabbitc()),
        ("NUMA domain", StealPolicy::nabbitc_domain()),
        ("none (nabbit)", StealPolicy::nabbit()),
    ] {
        let sp = avg_speedup(id, scale, p, policy, CostModel::default());
        rep.row(&[name.to_string(), f1(sp)]);
    }

    rep.line("\n## Remote/local cost ratio (NabbitC vs Nabbit)\n");
    rep.header(&[
        "remote ratio",
        "nabbit speedup",
        "nabbitc speedup",
        "advantage",
    ]);
    for ratio in [1.0f64, 1.5, 2.0, 3.0, 4.0, 6.0] {
        let cost = CostModel::default().with_remote_ratio(ratio);
        let nb = avg_speedup(id, scale, p, StealPolicy::nabbit(), cost.clone());
        let nc = avg_speedup(id, scale, p, StealPolicy::nabbitc(), cost);
        rep.row(&[
            format!("{ratio:.1}"),
            f1(nb),
            f1(nc),
            format!("{:.2}x", nc / nb),
        ]);
    }
    rep.finish().expect("failed to write results");
}
