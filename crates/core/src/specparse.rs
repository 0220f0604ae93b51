//! Experiment specs: the one description of a run, shared by the
//! `droplet-sim` CLI and the `droplet-serve` HTTP/JSON endpoints.
//!
//! A [`RunSpec`] names a run the way the paper does: a GAP algorithm and
//! dataset (Tables II–III) at a scale, a prefetcher configuration
//! (§VII-A), a trace budget, an optional epoch cadence, and per-level
//! replacement policies. Both front ends build it through
//! [`RunSpec::from_fields`] — the CLI from its `--flag value` pairs
//! (`--l1-policy` is field `l1_policy`), the service from a flat JSON
//! body via [`RunSpec::parse`] — so they accept the same values, fill in
//! the same defaults and enforce the same bounds.
//!
//! Every rejection is a [`SpecError`] naming the offending field, the
//! rejected value, and the accepted domain — so the CLI prints
//! `error: --budget: invalid value "abc" (expected a non-negative
//! integer)` and the server rejects the same spec with an HTTP 400
//! carrying the same field-level message.

mod json;

pub use json::SpecValue;

use crate::config::{PrefetcherKind, SystemConfig};
use crate::datasets::WorkloadSpec;
use crate::system::config_hash;
use droplet_cache::ReplacementPolicy;
use droplet_gap::Algorithm;
use droplet_graph::{Dataset, DatasetScale};
use droplet_obs::{fnv1a, ObsConfig, MAX_EPOCHS};
use std::fmt;

/// A rejected spec field: which field, what value, what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Spec field name, without flag dashes (`"budget"`, `"algo"`).
    pub field: String,
    /// The value as submitted.
    pub value: String,
    /// Human-readable domain description.
    pub expected: &'static str,
}

impl SpecError {
    fn new(field: &str, value: &str, expected: &'static str) -> Self {
        SpecError {
            field: field.to_string(),
            value: value.to_string(),
            expected,
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: invalid value {:?} (expected {})",
            self.field, self.value, self.expected
        )
    }
}

impl std::error::Error for SpecError {}

/// Parses an algorithm name (`bc|bfs|pr|sssp|cc`), naming `field` on error.
pub fn parse_algo(field: &str, value: &str) -> Result<Algorithm, SpecError> {
    match value.to_ascii_lowercase().as_str() {
        "bc" => Ok(Algorithm::Bc),
        "bfs" => Ok(Algorithm::Bfs),
        "pr" => Ok(Algorithm::Pr),
        "sssp" => Ok(Algorithm::Sssp),
        "cc" => Ok(Algorithm::Cc),
        _ => Err(SpecError::new(field, value, "one of bc|bfs|pr|sssp|cc")),
    }
}

/// Parses a dataset name (`kron|urand|orkut|livejournal|road`).
pub fn parse_dataset(field: &str, value: &str) -> Result<Dataset, SpecError> {
    match value.to_ascii_lowercase().as_str() {
        "kron" => Ok(Dataset::Kron),
        "urand" => Ok(Dataset::Urand),
        "orkut" => Ok(Dataset::Orkut),
        "livejournal" | "lj" => Ok(Dataset::LiveJournal),
        "road" => Ok(Dataset::Road),
        _ => Err(SpecError::new(
            field,
            value,
            "one of kron|urand|orkut|livejournal|road",
        )),
    }
}

/// Parses a prefetcher configuration name.
pub fn parse_prefetcher(field: &str, value: &str) -> Result<PrefetcherKind, SpecError> {
    match value.to_ascii_lowercase().as_str() {
        "none" | "baseline" => Ok(PrefetcherKind::None),
        "nextline" | "next-line" => Ok(PrefetcherKind::NextLine),
        "ghb" => Ok(PrefetcherKind::Ghb),
        "vldp" => Ok(PrefetcherKind::Vldp),
        "stream" => Ok(PrefetcherKind::Stream),
        "streammpp1" | "stream-mpp1" => Ok(PrefetcherKind::StreamMpp1),
        "droplet" => Ok(PrefetcherKind::Droplet),
        "mono" | "monodropletl1" => Ok(PrefetcherKind::MonoDropletL1),
        "adaptive" | "droplet-adaptive" => Ok(PrefetcherKind::AdaptiveDroplet),
        _ => Err(SpecError::new(
            field,
            value,
            "one of none|nextline|ghb|vldp|stream|streammpp1|droplet|mono|adaptive",
        )),
    }
}

/// Parses a dataset scale (`tiny|small|sim`).
pub fn parse_scale(field: &str, value: &str) -> Result<DatasetScale, SpecError> {
    match value.to_ascii_lowercase().as_str() {
        "tiny" => Ok(DatasetScale::Tiny),
        "small" => Ok(DatasetScale::Small),
        "sim" => Ok(DatasetScale::Sim),
        _ => Err(SpecError::new(field, value, "one of tiny|small|sim")),
    }
}

/// Parses a replacement-policy name (`lru|srrip|brrip|drrip|ship`).
pub fn parse_policy(field: &str, value: &str) -> Result<ReplacementPolicy, SpecError> {
    ReplacementPolicy::parse(value)
        .ok_or_else(|| SpecError::new(field, value, "one of lru|srrip|brrip|drrip|ship"))
}

/// Parses a non-negative integer field (`budget`, `epoch_ops`).
pub fn parse_u64(field: &str, value: &str) -> Result<u64, SpecError> {
    value
        .parse()
        .map_err(|_| SpecError::new(field, value, "a non-negative integer"))
}

/// Parses a positive integer field (`threads`).
pub fn parse_positive_usize(field: &str, value: &str) -> Result<usize, SpecError> {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(SpecError::new(field, value, "a positive integer")),
    }
}

/// A validated experiment spec: one workload, one configuration, plus the
/// optional `prefetchers` list `/sweep` fans out over.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The algorithm (required field `algo`).
    pub algorithm: Algorithm,
    /// The dataset (required field `dataset`).
    pub dataset: Dataset,
    /// Dataset scale (field `scale`; default is the caller's).
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
    SpecError::new(
        key,
        value,
        "a known spec field (algo|dataset|prefetcher|scale|budget|epoch_ops|l1_policy|l2_policy|l3_policy|prefetchers)",
    )
}

fn missing_field(key: &str) -> SpecError {
    SpecError::new(key, "", "a value (field is required)")
}

impl RunSpec {
    /// Parses and validates a JSON request body: the flat-JSON reader,
    /// then [`RunSpec::from_fields`].
    pub fn parse(body: &str, default_scale: DatasetScale) -> Result<RunSpec, SpecError> {
        let fields = json::parse_object(body)
            .map_err(|e| SpecError::new("body", &e, "a flat JSON object"))?;
        Self::from_fields(&fields, default_scale)
    }

    /// Validates `(field, value)` pairs in order; a later pair overrides an
    /// earlier one.
    ///
    /// `algo` and `dataset` are required. `scale` defaults to
    /// `default_scale`, `prefetcher` to `droplet`, and `budget` to the
    /// scale's standard trace budget. A `prefetcher` beside a non-empty
    /// `prefetchers` list is refused: one of them would be ignored. The
    /// list may name each configuration once (aliases resolved), so it
    /// holds at most one entry per [`PrefetcherKind`]. An `epoch_ops` must
    /// be at least `ceil(budget / MAX_EPOCHS)`: the journal ring keeps
    /// [`MAX_EPOCHS`] epochs and a streaming follower replays every line,
    /// so a finer cadence would record up to one line per op.
    pub fn from_fields(
        fields: &[(String, SpecValue)],
        default_scale: DatasetScale,
    ) -> Result<RunSpec, SpecError> {
        let mut algo = None;
        let mut dataset = None;
        let mut scale = None;
        let mut prefetcher = None;
        let mut budget = None;
        let mut epoch_ops = None;
        let mut policies: [Option<ReplacementPolicy>; 3] = [None; 3];
        let mut prefetchers = Vec::new();
        for (key, value) in fields {
            let scalar = match value {
                SpecValue::Scalar(s) => s.as_str(),
                SpecValue::List(items) => {
                    if key == "prefetchers" {
                        for item in items {
                            let kind = parse_prefetcher("prefetchers", item)?;
                            if prefetchers.contains(&kind) {
                                return Err(SpecError::new(
                                    "prefetchers",
                                    item,
                                    "a list of distinct prefetcher names",
                                ));
                            }
                            prefetchers.push(kind);
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
                "prefetcher" => {
                    prefetcher = Some((parse_prefetcher("prefetcher", scalar)?, scalar))
                }
                "budget" => budget = Some(parse_u64("budget", scalar)?),
                "epoch_ops" => epoch_ops = Some(parse_u64("epoch_ops", scalar)?),
                "l1_policy" => policies[0] = Some(parse_policy("l1_policy", scalar)?),
                "l2_policy" => policies[1] = Some(parse_policy("l2_policy", scalar)?),
                "l3_policy" => policies[2] = Some(parse_policy("l3_policy", scalar)?),
                "prefetchers" => {
                    return Err(SpecError::new(
                        "prefetchers",
                        scalar,
                        "a list of prefetcher names",
                    ))
                }
                _ => return Err(unknown_field(key, scalar)),
            }
        }
        if let (Some((_, value)), false) = (prefetcher, prefetchers.is_empty()) {
            return Err(SpecError::new(
                "prefetcher",
                value,
                "no prefetcher field beside a prefetchers list",
            ));
        }
        let scale = scale.unwrap_or(default_scale);
        let spec = RunSpec {
            algorithm: algo.ok_or_else(|| missing_field("algo"))?,
            dataset: dataset.ok_or_else(|| missing_field("dataset"))?,
            scale,
            prefetcher: prefetcher.map_or(PrefetcherKind::Droplet, |(kind, _)| kind),
            budget: budget.unwrap_or_else(|| WorkloadSpec::default_budget(scale)),
            epoch_ops,
            l1_policy: policies[0],
            l2_policy: policies[1],
            l3_policy: policies[2],
            prefetchers,
        };
        if let Some(n) = spec.epoch_ops {
            if n < spec.budget.div_ceil(MAX_EPOCHS as u64).max(1) {
                return Err(SpecError::new(
                    "epoch_ops",
                    &n.to_string(),
                    "at least ceil(budget / 4096): a journal keeps 4096 epochs",
                ));
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

    /// Warm-up ops excluded from statistics
    /// ([`WorkloadSpec::warmup_for`] the budget).
    pub fn warmup(&self) -> usize {
        WorkloadSpec::warmup_for(self.budget)
    }

    /// The full system configuration for `prefetcher`, derived from the
    /// base machine for this scale ([`SystemConfig::for_scale`]).
    pub fn config(&self, base: &SystemConfig) -> SystemConfig {
        self.config_for(base, self.prefetcher)
    }

    /// [`RunSpec::config`] with an explicit prefetcher (sweep cells).
    pub fn config_for(&self, base: &SystemConfig, kind: PrefetcherKind) -> SystemConfig {
        let mut cfg = base.with_prefetcher(kind);
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
    /// warm-up split, plus the sampling cadence when one is set (a result
    /// reports its epochs; unsampled keys are unchanged). Together with
    /// [`config_hash`] this is the job key — two submissions with equal
    /// keys are guaranteed bit-identical results, which is what licenses
    /// in-flight dedupe and the store.
    pub fn workload_hash(&self) -> u64 {
        let mut repr = format!(
            "{:?}|{:?}|{:?}|{}|{}",
            self.algorithm,
            self.dataset,
            self.scale,
            self.budget,
            self.warmup()
        );
        if let Some(n) = self.epoch_ops {
            repr.push_str(&format!("|{n}"));
        }
        fnv1a(repr.as_bytes())
    }

    /// The content-address for this spec under `cfg`:
    /// `{config_hash:016x}-{workload_hash:016x}`.
    pub fn key(&self, cfg: &SystemConfig) -> String {
        format!("{:016x}-{:016x}", config_hash(cfg), self.workload_hash())
    }

    /// The spec echoed back as JSON (the `"spec"` object in responses).
    pub fn render_json(&self, kind: PrefetcherKind) -> String {
        use droplet_obs::json::{object, quote};
        object(&[
            ("algo", quote(self.algorithm.name())),
            ("dataset", quote(self.dataset.name())),
            ("scale", quote(&format!("{:?}", self.scale).to_lowercase())),
            ("prefetcher", quote(kind.name())),
            ("budget", self.budget.to_string()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_values_parse() {
        assert_eq!(parse_algo("algo", "PR").unwrap(), Algorithm::Pr);
        assert_eq!(
            parse_dataset("dataset", "lj").unwrap(),
            Dataset::LiveJournal
        );
        assert_eq!(
            parse_prefetcher("prefetcher", "droplet").unwrap(),
            PrefetcherKind::Droplet
        );
        assert_eq!(parse_scale("scale", "tiny").unwrap(), DatasetScale::Tiny);
        assert_eq!(
            parse_policy("l3_policy", "srrip").unwrap(),
            ReplacementPolicy::Srrip
        );
        assert_eq!(parse_u64("budget", "30000").unwrap(), 30_000);
        assert_eq!(parse_positive_usize("threads", "4").unwrap(), 4);
    }

    #[test]
    fn errors_name_field_value_and_domain() {
        let e = parse_u64("budget", "abc").unwrap_err();
        assert_eq!(e.field, "budget");
        assert_eq!(e.value, "abc");
        assert_eq!(
            e.to_string(),
            "budget: invalid value \"abc\" (expected a non-negative integer)"
        );
        let e = parse_algo("algo", "dijkstra").unwrap_err();
        assert!(e.to_string().contains("bc|bfs|pr|sssp|cc"));
        let e = parse_positive_usize("threads", "0").unwrap_err();
        assert_eq!(e.expected, "a positive integer");
        let e = parse_policy("l2_policy", "mru").unwrap_err();
        assert_eq!(e.field, "l2_policy");
        assert!(parse_prefetcher("prefetcher", "magic").is_err());
        assert!(parse_scale("scale", "huge").is_err());
        assert!(parse_dataset("dataset", "twitter").is_err());
    }

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
    fn scalar_prefetchers_asks_for_a_list() {
        let body = |prefetchers: &str| {
            RunSpec::parse(
                &format!(r#"{{"algo": "pr", "dataset": "kron", "prefetchers": {prefetchers}}}"#),
                DatasetScale::Tiny,
            )
        };
        assert_eq!(
            body(r#""droplet""#).unwrap_err().to_string(),
            "prefetchers: invalid value \"droplet\" (expected a list of prefetcher names)"
        );
        assert_eq!(
            body(r#"["droplet", "vldp"]"#).unwrap().prefetchers,
            [PrefetcherKind::Droplet, PrefetcherKind::Vldp]
        );
        // A configuration listed twice, under any of its names, is refused.
        assert_eq!(
            body(r#"["none", "vldp", "baseline"]"#).unwrap_err().to_string(),
            "prefetchers: invalid value \"baseline\" (expected a list of distinct prefetcher names)"
        );
        // A single prefetcher beside the list is refused, not ignored.
        let both = body(r#"["ghb"], "prefetcher": "vldp""#).unwrap_err();
        assert_eq!(
            (both.field, both.value),
            ("prefetcher".into(), "vldp".into())
        );
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
        // A sampled result reports its epochs, so the cadence is part of
        // the job identity; the machine half of the key is unchanged.
        let mut c = a.clone();
        c.epoch_ops = Some(5_000);
        let kc = c.key(&c.config(&base));
        assert_ne!(ka, kc);
        assert_eq!(ka.split('-').next(), kc.split('-').next());
    }

    /// `droplet-sim`'s pairs: each `--flag value`, the flag with `-`
    /// turned into `_`.
    fn cli_fields(argv: &str) -> Vec<(String, SpecValue)> {
        let words: Vec<&str> = argv.split_whitespace().collect();
        let field = |flag: &str| flag.trim_start_matches("--").replace('-', "_");
        let pair = |kv: &[&str]| (field(kv[0]), SpecValue::Scalar(kv[1].to_string()));
        words.chunks(2).map(pair).collect()
    }

    #[test]
    fn cli_pairs_equal_the_json_body() {
        let cli = |argv| RunSpec::from_fields(&cli_fields(argv), DatasetScale::Small);
        let body = |text| RunSpec::parse(text, DatasetScale::Small);
        assert_eq!(
            cli(
                "--algo pr --dataset kron --scale tiny --budget 30000 --prefetcher stream \
                 --epoch-ops 2000 --l1-policy brrip --l3-policy srrip"
            ),
            body(
                r#"{"algo": "pr", "dataset": "kron", "scale": "tiny", "budget": 30000,
                    "prefetcher": "stream", "epoch_ops": 2000, "l1_policy": "brrip",
                    "l3_policy": "srrip"}"#
            )
        );
        // The defaults and the journal bound are shared too.
        let bare = cli("--algo bfs --dataset road");
        assert_eq!(bare, body(r#"{"algo": "bfs", "dataset": "road"}"#));
        assert_eq!(bare.unwrap().scale, DatasetScale::Small);
        assert_eq!(
            cli("--algo bfs --dataset kron --budget 30000 --epoch-ops 7"),
            body(r#"{"algo": "bfs", "dataset": "kron", "budget": 30000, "epoch_ops": 7}"#)
        );
    }

    #[test]
    fn policy_override_reaches_config() {
        let spec = RunSpec::from_fields(
            &cli_fields("--algo pr --dataset kron --l2-policy ship --l3-policy srrip"),
            DatasetScale::Tiny,
        )
        .unwrap();
        let plain = RunSpec {
            l2_policy: None,
            l3_policy: None,
            ..spec.clone()
        };
        for scale in [DatasetScale::Tiny, DatasetScale::Small, DatasetScale::Sim] {
            let base = SystemConfig::for_scale(scale);
            let cfg = spec.config(&base);
            assert_eq!(cfg.prefetcher, PrefetcherKind::Droplet);
            assert_eq!(cfg.l2.map(|c| c.policy), Some(ReplacementPolicy::Ship));
            assert_eq!(cfg.l3.policy, ReplacementPolicy::Srrip);
            // Every base machine uses the conventional streamer, so no
            // prefetcher and no override leave it unchanged.
            let none = plain.config_for(&base, PrefetcherKind::None);
            assert_eq!(format!("{none:?}"), format!("{base:?}"));
        }
    }
}
