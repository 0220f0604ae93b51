//! Shared scaffolding for the figure-regeneration bench targets.
//!
//! Every paper figure has its own bench (`cargo bench -p droplet-bench
//! --bench figNN_...`); each prints the figure's rows with the paper's
//! expected values annotated. The environment variable `DROPLET_SCALE`
//! (`tiny` / `small` / `sim`, default `sim`) selects the dataset scale so
//! the full suite can be smoke-tested quickly, and `DROPLET_BUDGET`
//! overrides the per-workload trace-op budget.

pub mod bench_json;

use droplet::experiments::ExperimentCtx;
use droplet::graph::DatasetScale;
use droplet::specparse::{parse_scale, parse_u64};

/// Builds the experiment context from the environment.
///
/// # Panics
///
/// Panics if `DROPLET_SCALE` is set to an unknown value or
/// `DROPLET_BUDGET` is not a number.
pub fn ctx_from_env() -> ExperimentCtx {
    let scale = match std::env::var("DROPLET_SCALE") {
        Ok(v) => parse_scale("DROPLET_SCALE", &v).unwrap_or_else(|e| panic!("{e}")),
        Err(_) => DatasetScale::Sim,
    };
    let ctx = ExperimentCtx::at(scale);
    match std::env::var("DROPLET_BUDGET") {
        Ok(v) => ctx.with_budget(parse_u64("DROPLET_BUDGET", &v).unwrap_or_else(|e| panic!("{e}"))),
        Err(_) => ctx,
    }
}

/// Prints the standard bench banner.
pub fn banner(figure: &str, ctx: &ExperimentCtx) {
    println!("==============================================================");
    println!("DROPLET reproduction — {figure}");
    println!(
        "scale {:?}, budget {} ops, warmup {} ops",
        ctx.scale, ctx.budget, ctx.warmup
    );
    println!("==============================================================");
}

/// Wall-clock helper for progress lines.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    eprintln!("[{label}: {:.1}s]", start.elapsed().as_secs_f64());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ctx_is_sim_scale() {
        // Only check when the variable is not set in the environment.
        if std::env::var("DROPLET_SCALE").is_err() {
            let ctx = ctx_from_env();
            assert!(matches!(ctx.scale, DatasetScale::Sim));
        }
    }

    #[test]
    fn timed_passes_value_through() {
        assert_eq!(timed("t", || 42), 42);
    }
}
