//! Observability wiring shared by `eval` and `simulate`: the
//! `--trace-out` / `--flight-recorder` / `--metrics` / `--dump-plan`
//! options and the [`Obs`] assembled from them.

use crate::{err, CliError};
use calm_obs::{Obs, ReportSink, Sink};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Observability options shared by `eval` and `simulate`
/// (`--trace-out PREFIX`, `--flight-recorder PATH`, `--metrics` and
/// `--dump-plan`).
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Write trace artifacts `<prefix>.jsonl` (event log) and
    /// `<prefix>.trace.json` (Chrome trace-event JSON).
    pub trace_out: Option<PathBuf>,
    /// Attach the always-on flight recorder: a bounded ring of recent
    /// observations dumped to this JSONL file when an anomaly fires
    /// (retry-budget exhaustion, wire decode failure, node crash, or
    /// non-quiescent termination). A clean run writes nothing.
    pub flight_recorder: Option<PathBuf>,
    /// Append the terminal run report to the command output.
    pub metrics: bool,
    /// Print the compiled query plan — per rule, the join order of
    /// round 0 and of every delta seed, each atom tagged with how the
    /// kernel reaches it (`probe@c`/`lookup`/`scan`) — as `% `-prefixed
    /// comment lines before the results.
    pub dump_plan: bool,
}

/// A path like `out/run42/trace` usually points into a directory that
/// doesn't exist yet; create it rather than surfacing the opaque ENOENT
/// the sink would hit.
fn ensure_parent(flag: &str, path: &Path) -> Result<(), CliError> {
    match path.parent().filter(|d| !d.as_os_str().is_empty()) {
        Some(dir) => std::fs::create_dir_all(dir).map_err(|e| {
            err(format!(
                "{flag}: cannot create directory '{}': {e}",
                dir.display()
            ))
        }),
        None => Ok(()),
    }
}

/// Assemble an [`Obs`] from the options, plus the report sink to render
/// (when `--metrics`). `extra` sinks (such as a `TraceSink` the caller
/// wants fanned in) come first.
pub(crate) fn build_obs(
    opts: &ObsOptions,
    extra: Vec<Arc<dyn Sink>>,
) -> Result<(Obs, Option<Arc<ReportSink>>), CliError> {
    if let Some(prefix) = &opts.trace_out {
        ensure_parent("--trace-out", prefix)?;
    }
    if let Some(path) = &opts.flight_recorder {
        ensure_parent("--flight-recorder", path)?;
    }
    calm_obs::assemble(
        extra,
        opts.trace_out.as_deref(),
        opts.flight_recorder.as_deref(),
        opts.metrics,
    )
    .map_err(|(_, e)| err(format!("--trace-out: {e}")))
}
