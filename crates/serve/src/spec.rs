//! Experiment-spec validation: JSON body → simulator inputs.
//!
//! Every field is validated through [`droplet::specparse`] — the same
//! parsers `droplet-sim` runs its flags through — so a value the CLI
//! rejects with `error: --budget: invalid value "abc"` is rejected here
//! with an HTTP 400 carrying the identical field-level message.

use crate::json::{parse_object, SpecValue};
use droplet::obs::json;
use droplet::specparse::{
    parse_algo, parse_dataset, parse_policy, parse_prefetcher, parse_scale, parse_u64,
};
use droplet::{config_hash, PrefetcherKind, SpecError, SystemConfig, WorkloadSpec};
use droplet_cache::ReplacementPolicy;
use droplet_gap::Algorithm;
use droplet_graph::{Dataset, DatasetScale};
use droplet_obs::{fnv1a, ObsConfig};

/// A validated experiment spec: one workload, one configuration, plus the
/// optional `prefetchers` list `/sweep` fans out over.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The algorithm (required field `algo`).
    pub algorithm: Algorithm,
    /// The dataset (required field `dataset`).
    pub dataset: Dataset,
    /// Dataset scale (field `scale`; default is the server's).
    pub scale: DatasetScale,
    /// Prefetcher under test (field `prefetcher`; default `droplet`).
    pub prefetcher: PrefetcherKind,
    /// Trace op budget (field `budget`; default per scale).
    pub budget: u64,
    /// Epoch sampling cadence (field `epoch_ops`); enables the journal
    /// and live epoch streaming.
    pub epoch_ops: Option<u64>,
    /// Per-level replacement-policy overrides (`l1_policy` …).
    pub l1_policy: Option<ReplacementPolicy>,
    /// See [`RunSpec::l1_policy`].
    pub l2_policy: Option<ReplacementPolicy>,
    /// See [`RunSpec::l1_policy`].
    pub l3_policy: Option<ReplacementPolicy>,
    /// `/sweep` only: the configurations to fan out over one shared
    /// warm-up (field `prefetchers`).
    pub prefetchers: Vec<PrefetcherKind>,
}

fn unknown_field(key: &str, value: &str) -> SpecError {
    SpecError {
        field: key.to_string(),
        value: value.to_string(),
        expected:
            "a known spec field (algo|dataset|prefetcher|scale|budget|epoch_ops|l1_policy|l2_policy|l3_policy|prefetchers)",
    }
}

fn missing_field(key: &str) -> SpecError {
    SpecError {
        field: key.to_string(),
        value: String::new(),
        expected: "a value (field is required)",
    }
}

impl RunSpec {
    /// Parses and validates a JSON request body.
    ///
    /// `default_scale` supplies `scale` when the body omits it; `budget`
    /// defaults to the scale's standard trace budget.
    pub fn parse(body: &str, default_scale: DatasetScale) -> Result<RunSpec, SpecError> {
        let pairs = parse_object(body).map_err(|e| SpecError {
            field: "body".to_string(),
            value: e,
            expected: "a flat JSON object",
        })?;
        let mut algo = None;
        let mut dataset = None;
        let mut scale = None;
        let mut prefetcher = None;
        let mut budget = None;
        let mut epoch_ops = None;
        let mut policies: [Option<ReplacementPolicy>; 3] = [None; 3];
        let mut prefetchers = Vec::new();
        for (key, value) in &pairs {
            let scalar = match value {
                SpecValue::Scalar(s) => s.as_str(),
                SpecValue::List(items) => {
                    if key == "prefetchers" {
                        for item in items {
                            prefetchers.push(parse_prefetcher("prefetchers", item)?);
                        }
                        continue;
                    }
                    return Err(unknown_field(key, &format!("[{}]", items.join(","))));
                }
            };
            match key.as_str() {
                "algo" => algo = Some(parse_algo("algo", scalar)?),
                "dataset" => dataset = Some(parse_dataset("dataset", scalar)?),
                "scale" => scale = Some(parse_scale("scale", scalar)?),
                "prefetcher" => prefetcher = Some(parse_prefetcher("prefetcher", scalar)?),
                "budget" => budget = Some(parse_u64("budget", scalar)?),
                "epoch_ops" => epoch_ops = Some(parse_u64("epoch_ops", scalar)?),
                "l1_policy" => policies[0] = Some(parse_policy("l1_policy", scalar)?),
                "l2_policy" => policies[1] = Some(parse_policy("l2_policy", scalar)?),
                "l3_policy" => policies[2] = Some(parse_policy("l3_policy", scalar)?),
                _ => return Err(unknown_field(key, scalar)),
            }
        }
        let scale = scale.unwrap_or(default_scale);
        let spec = RunSpec {
            algorithm: algo.ok_or_else(|| missing_field("algo"))?,
            dataset: dataset.ok_or_else(|| missing_field("dataset"))?,
            scale,
            prefetcher: prefetcher.unwrap_or(PrefetcherKind::Droplet),
            budget: budget.unwrap_or_else(|| WorkloadSpec::default_budget(scale)),
            epoch_ops,
            l1_policy: policies[0],
            l2_policy: policies[1],
            l3_policy: policies[2],
            prefetchers,
        };
        if let Some(n) = spec.epoch_ops {
            // The journal ring keeps `max_epochs` epochs and a follower
            // replays every streamed line, so a finer cadence would hold
            // up to one line per op.
            let max_epochs = ObsConfig::default().max_epochs as u64;
            if n < spec.budget.div_ceil(max_epochs).max(1) {
                return Err(SpecError {
                    field: "epoch_ops".to_string(),
                    value: n.to_string(),
                    expected: "at least ceil(budget / 4096): a journal keeps 4096 epochs",
                });
            }
        }
        Ok(spec)
    }

    /// The workload this spec names.
    pub fn workload(&self) -> WorkloadSpec {
        WorkloadSpec {
            algorithm: self.algorithm,
            dataset: self.dataset,
            scale: self.scale,
        }
    }

    /// Warm-up ops excluded from statistics (the CLI's `budget / 4` rule).
    pub fn warmup(&self) -> usize {
        (self.budget / 4) as usize
    }

    /// The full system configuration for `prefetcher`, derived from the
    /// server's base configuration for this scale.
    pub fn config(&self, base: &SystemConfig) -> SystemConfig {
        self.config_for(base, self.prefetcher)
    }

    /// [`RunSpec::config`] with an explicit prefetcher (sweep cells).
    pub fn config_for(&self, base: &SystemConfig, kind: PrefetcherKind) -> SystemConfig {
        let mut cfg = if kind == PrefetcherKind::None {
            base.clone()
        } else {
            base.with_prefetcher(kind)
        };
        if let Some(p) = self.l1_policy {
            cfg = cfg.with_l1_policy(p);
        }
        if let Some(p) = self.l2_policy {
            cfg = cfg.with_l2_policy(p);
        }
        if let Some(p) = self.l3_policy {
            cfg = cfg.with_l3_policy(p);
        }
        if let Some(n) = self.epoch_ops {
            cfg.obs = Some(ObsConfig::every(n));
        }
        cfg
    }

    /// FNV-1a hash of the trace identity: workload plus budget plus
    /// warm-up split. Together with [`config_hash`] this is the job key —
    /// two submissions with equal keys are guaranteed bit-identical
    /// results, which is what licenses in-flight dedupe and the store.
    pub fn workload_hash(&self) -> u64 {
        let repr = format!(
            "{:?}|{:?}|{:?}|{}|{}",
            self.algorithm,
            self.dataset,
            self.scale,
            self.budget,
            self.warmup()
        );
        fnv1a(repr.as_bytes())
    }

    /// The content-address for this spec under `cfg`:
    /// `{config_hash:016x}-{workload_hash:016x}`.
    pub fn key(&self, cfg: &SystemConfig) -> String {
        format!("{:016x}-{:016x}", config_hash(cfg), self.workload_hash())
    }

    /// The spec echoed back as JSON (the `"spec"` object in responses).
    pub fn render_json(&self, kind: PrefetcherKind) -> String {
        json::object(&[
            ("algo", json::quote(self.algorithm.name())),
            ("dataset", json::quote(self.dataset.name())),
            (
                "scale",
                json::quote(&format!("{:?}", self.scale).to_lowercase()),
            ),
            ("prefetcher", json::quote(kind.name())),
            ("budget", self.budget.to_string()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let s = RunSpec::parse(
            r#"{"algo": "pr", "dataset": "kron", "scale": "tiny",
                "prefetcher": "droplet", "budget": 30000, "epoch_ops": 5000,
                "l3_policy": "srrip"}"#,
            DatasetScale::Small,
        )
        .unwrap();
        assert_eq!(s.algorithm, Algorithm::Pr);
        assert_eq!(s.dataset, Dataset::Kron);
        assert_eq!(s.scale, DatasetScale::Tiny);
        assert_eq!(s.budget, 30_000);
        assert_eq!(s.warmup(), 7_500);
        assert_eq!(s.epoch_ops, Some(5_000));
        assert_eq!(s.l3_policy, Some(ReplacementPolicy::Srrip));
    }

    #[test]
    fn defaults_follow_the_cli() {
        let s =
            RunSpec::parse(r#"{"algo": "bfs", "dataset": "road"}"#, DatasetScale::Tiny).unwrap();
        assert_eq!(s.scale, DatasetScale::Tiny);
        assert_eq!(s.prefetcher, PrefetcherKind::Droplet);
        assert_eq!(s.budget, WorkloadSpec::default_budget(DatasetScale::Tiny));
        assert_eq!(s.budget as usize / 4, s.warmup());
    }

    #[test]
    fn field_errors_match_the_cli_diagnostics() {
        let e = RunSpec::parse(
            r#"{"algo": "pr", "dataset": "kron", "budget": "abc"}"#,
            DatasetScale::Tiny,
        )
        .unwrap_err();
        assert_eq!(
            e.to_string(),
            "budget: invalid value \"abc\" (expected a non-negative integer)"
        );
        let e = RunSpec::parse(r#"{"dataset": "kron"}"#, DatasetScale::Tiny).unwrap_err();
        assert_eq!(e.field, "algo");
        let e = RunSpec::parse(
            r#"{"algo": "pr", "dataset": "kron", "turbo": "on"}"#,
            DatasetScale::Tiny,
        )
        .unwrap_err();
        assert_eq!(e.field, "turbo");
        let e = RunSpec::parse("not json", DatasetScale::Tiny).unwrap_err();
        assert_eq!(e.field, "body");
        // A run records at most one journal ring (4,096 epochs), so at
        // budget 30,000 the cadence must be at least 8 ops.
        let with_epochs = |n: u64| {
            RunSpec::parse(
                &format!(
                    r#"{{"algo": "pr", "dataset": "kron", "budget": 30000, "epoch_ops": {n}}}"#
                ),
                DatasetScale::Tiny,
            )
        };
        for n in [0, 1, 7] {
            let e = with_epochs(n).unwrap_err();
            assert_eq!((e.field.as_str(), e.value), ("epoch_ops", n.to_string()));
        }
        assert_eq!(with_epochs(8).unwrap().epoch_ops, Some(8));
    }

    #[test]
    fn key_separates_config_and_workload() {
        let base = SystemConfig::test_scale();
        let a = RunSpec::parse(
            r#"{"algo": "pr", "dataset": "kron", "scale": "tiny"}"#,
            DatasetScale::Tiny,
        )
        .unwrap();
        let b = RunSpec::parse(
            r#"{"algo": "bfs", "dataset": "kron", "scale": "tiny"}"#,
            DatasetScale::Tiny,
        )
        .unwrap();
        let (ka, kb) = (a.key(&a.config(&base)), b.key(&b.config(&base)));
        assert_ne!(ka, kb);
        // Same machine: config half of the key is shared.
        assert_eq!(ka.split('-').next(), kb.split('-').next());
        // Sampling cadence does not change the machine identity.
        let mut c = a.clone();
        c.epoch_ops = Some(5_000);
        assert_eq!(ka, c.key(&c.config(&base)));
    }
}
