use nabbitc_benchmark::cli::{self, Mode};
use nabbitc_benchmark::layers::{self, Effort};
use nabbitc_benchmark::metrics::{end_to_end_table, per_layer_table, Values};
use nabbitc_benchmark::run::{end_to_end, per_layer};
use nabbitc_benchmark::suite::{compare, describe, result_line, run_all};

fn print_values(values: &Values, table: &[(&'static str, &'static str)]) {
    for &(name, unit) in table {
        if let Some(value) = values.get(name) {
            println!("{name:<40} {value:>16.4} {unit}");
        }
    }
}

fn main() {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let options = args.options;
    let code = match args.mode {
        Mode::Workload { workload, trace } => {
            println!(
                "{} seed={} workers={} seconds={} trace={}{}",
                workload.name,
                options.seed,
                options.workers,
                options.seconds,
                u8::from(trace),
                if options.smoke { " smoke" } else { "" },
            );
            let (outcome, table) = if trace {
                (per_layer(workload, &options), per_layer_table())
            } else {
                (end_to_end(workload, &options), end_to_end_table())
            };
            print_values(&outcome.values, &table);
            println!(
                "operations: {} attempted, {} failed",
                outcome.attempted, outcome.failed
            );
            println!("detail {}", outcome.detail.compact());
            println!(
                "{}",
                result_line(
                    outcome.attempted,
                    outcome.failed,
                    outcome.values.to_json(&table),
                )
            );
            0
        }
        Mode::All => run_all(&options),
        Mode::Layers => {
            let mut values = Values::default();
            let effort = if options.smoke {
                Effort::SMOKE
            } else {
                Effort::FULL
            };
            layers::runtime(effort, options.workers, &mut values);
            print_values(&values, &per_layer_table());
            0
        }
        Mode::Compare(a, b) => compare(&a, &b),
        Mode::Describe => {
            print!("{}", describe().pretty());
            0
        }
    };
    std::process::exit(code);
}
