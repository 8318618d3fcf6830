//! The `figures` binary: regenerate any table/figure of the paper.
//!
//! ```text
//! figures all                 # every experiment at laptop scale
//! figures fig08 fig09         # specific experiments
//! figures --scale 10 fig19    # 10x larger data (toward paper scale)
//! figures --list              # show available ids
//! ```
#![warn(clippy::allow_attributes_without_reason)]

use hermit_bench::experiments;
use hermit_bench::harness::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default();
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let v = args
                    .get(i)
                    .and_then(|s| s.parse::<f64>().ok())
                    .unwrap_or_else(|| die("--scale needs a positive number"));
                if v <= 0.0 {
                    die("--scale needs a positive number");
                }
                scale = Scale(v);
            }
            "--list" => {
                for id in experiments::ALL {
                    println!("{id}");
                }
                return;
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        print_help();
        std::process::exit(2);
    }
    if ids.iter().any(|s| s == "all") {
        ids = experiments::ALL.iter().map(|s| s.to_string()).collect();
    }
    for id in &ids {
        if !experiments::run(id, scale) {
            eprintln!("unknown experiment id: {id} (try --list)");
            std::process::exit(2);
        }
    }
}

fn print_help() {
    println!(
        "usage: figures [--scale F] <id>... | all | --list\n\
         Regenerates the Hermit paper's tables and figures.\n\
         ids: {}",
        experiments::ALL.join(" ")
    );
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
