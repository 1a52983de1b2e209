//! Seeded request generation for the `serve_*` workloads. The harness owns
//! the seed; the daemon sees only the requests generated from it.

use stream_apps::AppId;
use stream_repro::{ExperimentId, Metric, SpaceQuery, FIG13_NS, FIG14_CS};
use stream_vlsi::{CostModel, Shape};

/// SplitMix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014): a 64-bit state, one add and three
/// xor-shift-multiplies per draw.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 pseudorandom bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// the small `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Cluster counts of the `serve_tune` key space.
pub const TUNE_CLUSTERS: [u32; 5] = [8, 16, 32, 64, 128];
/// ALUs-per-cluster counts of the `serve_tune` key space. `N` of 2 and 3 is
/// left out: there the default program of some applications overflows the
/// SRF and `/v1/tune` fails (see [`UNSERVABLE_TUNE_POINTS`]).
pub const TUNE_ALUS: [u32; 4] = [5, 8, 10, 14];
/// The `(C, N)` shapes of the `tune` table's anchor rows.
pub const TUNE_ANCHOR_SHAPES: [(u32, u32); 2] = [(8, 5), (64, 8)];
/// Points where `/v1/tune` does not answer 200 at this revision; no
/// workload may request them.
pub const UNSERVABLE_TUNE_POINTS: [(AppId, u32, u32); 5] = [
    (AppId::Render, 8, 2),
    (AppId::Render, 8, 3),
    (AppId::Render, 16, 2),
    (AppId::Fft4k, 8, 2),
    (AppId::Fft4k, 8, 3),
];

/// Distinct `POST /v1/query` bodies per `serve_memo` run.
const QUERY_POOL: usize = 64;
/// Distinct `GET /v1/sweep` id lists per `serve_memo` run.
const SWEEP_POOL: usize = 16;

/// A constrained design-space query, as sent and as solved in-process.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Objective.
    pub minimize: Metric,
    /// Cluster counts swept.
    pub clusters: Vec<u32>,
    /// ALUs-per-cluster counts swept.
    pub alus: Vec<u32>,
    /// Upper bounds `metric <= max`.
    pub constraints: Vec<(Metric, f64)>,
}

impl QuerySpec {
    /// The library query the daemon's answer must equal.
    pub fn space_query(&self) -> SpaceQuery {
        let mut q = SpaceQuery::minimize(self.minimize)
            .clusters(self.clusters.iter().copied())
            .alus_per_cluster(self.alus.iter().copied());
        for &(metric, max) in &self.constraints {
            q = q.subject_to(metric, max);
        }
        q
    }

    /// The JSON request body. Floats print in Rust's shortest round-trip
    /// form, so the daemon parses back exactly `max`.
    pub fn body(&self) -> String {
        let list = |v: &[u32]| v.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
        let constraints: Vec<String> = self
            .constraints
            .iter()
            .map(|(m, max)| format!("{{\"metric\":\"{}\",\"max\":{max}}}", m.name()))
            .collect();
        format!(
            "{{\"minimize\":\"{}\",\"clusters\":[{}],\"alus_per_cluster\":[{}],\"constraints\":[{}]}}",
            self.minimize.name(),
            list(&self.clusters),
            list(&self.alus),
            constraints.join(",")
        )
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `GET /v1/run/<id>`, as JSON or (`text`) as `repro <id>` stdout.
    Run {
        /// Experiment.
        id: ExperimentId,
        /// `format=text` when set.
        text: bool,
    },
    /// `GET /v1/tune?app=..&clusters=..&alus_per_cluster=..`.
    Tune {
        /// Application.
        app: AppId,
        /// `C`.
        clusters: u32,
        /// `N`.
        alus: u32,
    },
    /// `POST /v1/query`.
    Query(QuerySpec),
    /// `GET /v1/sweep?experiments=a,b,c`.
    Sweep([ExperimentId; 3]),
}

impl Request {
    /// HTTP method.
    pub fn method(&self) -> &'static str {
        match self {
            Request::Query(_) => "POST",
            _ => "GET",
        }
    }

    /// Request target (path and query string).
    pub fn path(&self) -> String {
        match self {
            Request::Run { id, text: false } => format!("/v1/run/{id}"),
            Request::Run { id, text: true } => format!("/v1/run/{id}?format=text"),
            Request::Tune {
                app,
                clusters,
                alus,
            } => format!("/v1/tune?app={app}&clusters={clusters}&alus_per_cluster={alus}"),
            Request::Query(_) => "/v1/query".to_string(),
            Request::Sweep(ids) => {
                format!("/v1/sweep?experiments={},{},{}", ids[0], ids[1], ids[2])
            }
        }
    }

    /// Request body, for `POST`s.
    pub fn body(&self) -> Option<String> {
        match self {
            Request::Query(q) => Some(q.body()),
            _ => None,
        }
    }

    /// Identifies the request's exact bytes: equal keys must get
    /// byte-identical responses.
    pub fn key(&self) -> String {
        format!(
            "{} {} {}",
            self.method(),
            self.path(),
            self.body().unwrap_or_default()
        )
    }
}

/// The `serve_memo` traffic: the request stream and every distinct key in
/// it, for priming.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoWorkload {
    /// Requests in send order.
    pub requests: Vec<Request>,
    /// Every distinct request, experiments first: requesting each once
    /// makes every later request a memo hit.
    pub keys: Vec<Request>,
}

fn subset(rng: &mut SplitMix64, all: &[u32]) -> Vec<u32> {
    let picked: Vec<u32> = all.iter().copied().filter(|_| rng.below(2) == 0).collect();
    if picked.is_empty() {
        all.to_vec()
    } else {
        picked
    }
}

/// A query over seeded axes whose constraints are the metric values of one
/// seeded shape of those axes, so at least that shape is feasible.
fn query(rng: &mut SplitMix64, model: &CostModel) -> QuerySpec {
    let minimize = Metric::ALL[rng.below(Metric::ALL.len())];
    let clusters = subset(rng, &FIG14_CS);
    let alus = subset(rng, &FIG13_NS);
    let witness = model.evaluate(Shape::new(
        clusters[rng.below(clusters.len())],
        alus[rng.below(alus.len())],
    ));
    let constraints = (0..rng.below(3))
        .map(|_| {
            let m = Metric::ALL[rng.below(Metric::ALL.len())];
            (m, m.of(&witness))
        })
        .collect();
    QuerySpec {
        minimize,
        clusters,
        alus,
        constraints,
    }
}

fn sweep(rng: &mut SplitMix64) -> [ExperimentId; 3] {
    let mut ids = ExperimentId::ALL;
    rng.shuffle(&mut ids);
    [ids[0], ids[1], ids[2]]
}

fn tune_anchors() -> Vec<Request> {
    AppId::ALL
        .iter()
        .flat_map(|&app| {
            TUNE_ANCHOR_SHAPES
                .iter()
                .map(move |&(clusters, alus)| Request::Tune {
                    app,
                    clusters,
                    alus,
                })
        })
        .collect()
}

/// `count` read-path requests: 60% `/v1/run` (30 ids, half as text), 20%
/// `/v1/tune` at the 12 `tune` table anchors, 15% `/v1/query` from a pool
/// of seeded constraint sets, 5% `/v1/sweep` of 3 seeded ids.
pub fn serve_memo(seed: u64, count: usize) -> MemoWorkload {
    let mut rng = SplitMix64::new(seed);
    let model = CostModel::paper();
    let queries: Vec<QuerySpec> = (0..QUERY_POOL).map(|_| query(&mut rng, &model)).collect();
    let sweeps: Vec<[ExperimentId; 3]> = (0..SWEEP_POOL).map(|_| sweep(&mut rng)).collect();
    let anchors = tune_anchors();
    let requests = (0..count)
        .map(|_| match rng.below(100) {
            0..=59 => Request::Run {
                id: ExperimentId::ALL[rng.below(ExperimentId::ALL.len())],
                text: rng.below(2) == 1,
            },
            60..=79 => anchors[rng.below(anchors.len())].clone(),
            80..=94 => Request::Query(queries[rng.below(queries.len())].clone()),
            _ => Request::Sweep(sweeps[rng.below(sweeps.len())]),
        })
        .collect();
    let mut keys: Vec<Request> = ExperimentId::ALL
        .iter()
        .flat_map(|&id| [false, true].map(|text| Request::Run { id, text }))
        .collect();
    keys.extend(anchors);
    keys.extend(queries.into_iter().map(Request::Query));
    keys.extend(sweeps.into_iter().map(Request::Sweep));
    MemoWorkload { requests, keys }
}

/// Every `(app, C, N)` point of the tune key space exactly once, in seeded
/// order.
pub fn serve_tune(seed: u64) -> Vec<Request> {
    let mut points: Vec<Request> = AppId::ALL
        .iter()
        .flat_map(|&app| {
            TUNE_CLUSTERS.iter().flat_map(move |&clusters| {
                TUNE_ALUS.iter().map(move |&alus| Request::Tune {
                    app,
                    clusters,
                    alus,
                })
            })
        })
        .collect();
    SplitMix64::new(seed).shuffle(&mut points);
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn splitmix_matches_the_reference_sequence() {
        // First outputs of the reference implementation for seed 0.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        assert_eq!(serve_memo(7, 500), serve_memo(7, 500));
        assert_ne!(serve_memo(7, 500).requests, serve_memo(8, 500).requests);
        assert_eq!(serve_tune(7), serve_tune(7));
        assert_ne!(serve_tune(7), serve_tune(8));
    }

    #[test]
    fn memo_mix_follows_the_stated_shares() {
        let w = serve_memo(1, 20_000);
        let share = |endpoint: &str| {
            w.requests
                .iter()
                .filter(|r| r.path().starts_with(endpoint))
                .count() as f64
                / 20_000.0
        };
        for (endpoint, want) in [
            ("/v1/run/", 0.60),
            ("/v1/tune", 0.20),
            ("/v1/query", 0.15),
            ("/v1/sweep", 0.05),
        ] {
            assert!((share(endpoint) - want).abs() < 0.015, "{endpoint}");
        }
        let text = w
            .requests
            .iter()
            .filter(|r| matches!(r, Request::Run { text: true, .. }))
            .count() as f64;
        assert!((text / (share("/v1/run/") * 20_000.0) - 0.5).abs() < 0.02);
    }

    #[test]
    fn every_memo_request_is_a_primed_key() {
        let w = serve_memo(3, 5_000);
        let keys: BTreeSet<String> = w.keys.iter().map(Request::key).collect();
        assert_eq!(keys.len(), w.keys.len(), "keys are distinct");
        assert!(w.requests.iter().all(|r| keys.contains(&r.key())));
        // Experiments come first, so priming computes each cell before any
        // request that reads several.
        assert!(w.keys[..60]
            .iter()
            .all(|r| matches!(r, Request::Run { .. })));
    }

    #[test]
    fn every_query_has_a_feasible_answer() {
        let w = serve_memo(11, 0);
        for r in &w.keys {
            if let Request::Query(q) = r {
                assert!(q.space_query().solve().is_some(), "{}", q.body());
                assert!(stream_serve::json::parse(&q.body()).is_ok());
            }
        }
    }

    #[test]
    fn tune_is_a_permutation_of_the_servable_key_space() {
        let order = serve_tune(42);
        assert_eq!(order.len(), 120);
        let points: BTreeSet<(AppId, u32, u32)> = order
            .iter()
            .map(|r| match *r {
                Request::Tune {
                    app,
                    clusters,
                    alus,
                } => (app, clusters, alus),
                _ => panic!("not a tune request: {r:?}"),
            })
            .collect();
        assert_eq!(points.len(), 120);
        for app in AppId::ALL {
            for (c, n) in TUNE_ANCHOR_SHAPES {
                assert!(points.contains(&(app, c, n)), "{app} C={c} N={n}");
            }
        }
        for bad in UNSERVABLE_TUNE_POINTS {
            assert!(!points.contains(&bad), "{bad:?}");
        }
    }
}
