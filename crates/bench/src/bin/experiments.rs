//! CLI for the experiment harness.
//!
//! ```text
//! experiments <id|all> [--scale F] [--queries N] [--threads T]
//! ```

use privpath_bench::experiments::{parse_args, run, ALL_EXPERIMENTS};

fn usage(error: &str) -> ! {
    eprintln!(
        "error: {error}\n\
         usage: experiments <id|all> [--scale F|full] [--queries N] [--threads T]\n  \
         ids: {}\n  --scale full (or paper) runs every network at its exact Table 1 size",
        ALL_EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (id, ctx) = parse_args(&args).unwrap_or_else(|e| usage(&e));
    let t0 = std::time::Instant::now();
    if let Err(e) = run(&id, &ctx) {
        eprintln!("experiment '{id}' failed: {e}");
        std::process::exit(1);
    }
    let scale_desc = if ctx.scale_factor == privpath_bench::scales::FULL_SCALE {
        "full (paper sizes)".to_string()
    } else {
        format!("x{}", ctx.scale_factor)
    };
    eprintln!(
        "[{} completed in {:.1?} — scale {scale_desc}, {} queries/workload]",
        id,
        t0.elapsed(),
        ctx.queries
    );
}
