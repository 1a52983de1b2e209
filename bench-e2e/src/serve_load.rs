//! The `serve_memo` and `serve_tune` workloads: closed-loop request streams
//! from two client threads against a `stream-serve --jobs 2` child on a new
//! cache directory.

use crate::daemon::Daemon;
use crate::http;
use crate::reference::{self, TuneAnchor, REPRO_OUTPUT};
use crate::report::{Metrics, Outcome};
use crate::stats::{self, Summary};
use crate::workload::{self, Request};
use crate::{layers, traced, Env, Workload, JOBS};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};
use stream_serve::json::{self, Value};
use stream_serve::{start, ServerConfig};

/// A request without a complete response by then has failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);
/// `serve_memo` requests per run, at least.
const MEMO_MIN_REQUESTS: usize = 20_000;
/// `serve_memo` requests the traced pass replays.
const MEMO_TRACED_REQUESTS: usize = 2_000;
/// 120-request passes per `serve_tune` run, at least; each pass runs on a
/// new daemon and cache directory.
const MIN_TUNE_PASSES: usize = 1;
/// Daemons started and stopped before the passes, so `serve_tune`'s set-up
/// time is a median over several starts.
const TUNE_EXTRA_SPAWNS: usize = 2;
/// The endpoints whose server-side latency `/metrics` reports.
const ENDPOINTS: [&str; 4] = ["run", "tune", "query", "sweep"];
/// Time for detached connection threads of an in-process daemon to exit
/// (their span buffers flush on exit) after the last response.
const SPAN_FLUSH_GRACE: Duration = Duration::from_millis(200);

/// A request with its wire form computed once.
struct Prepared<'a> {
    request: &'a Request,
    path: String,
    body: Option<String>,
    key: String,
}

fn prepare(requests: &[Request]) -> Vec<Prepared<'_>> {
    requests
        .iter()
        .map(|request| Prepared {
            request,
            path: request.path(),
            body: request.body(),
            key: request.key(),
        })
        .collect()
}

/// Checks responses. The first answer to each request is checked in full;
/// when `repeatable`, later answers to the same request must repeat its
/// bytes (the daemon promises byte-determinism for memoized results).
struct Verifier {
    anchors: Vec<TuneAnchor>,
    repeatable: bool,
    seen: RwLock<HashMap<String, String>>,
}

impl Verifier {
    fn new(repeatable: bool) -> Self {
        Self {
            anchors: reference::tune_anchors(REPRO_OUTPUT)
                .expect("the reference tune table parses"),
            repeatable,
            seen: RwLock::new(HashMap::new()),
        }
    }

    /// Why `resp` is the wrong answer to `p`, if it is. The message carries
    /// the daemon's `X-Request-Id`, which the request's trace spans carry
    /// too.
    fn check(&self, p: &Prepared<'_>, resp: &http::Response) -> Option<String> {
        let failure = |what: String| {
            let id = resp.request_id.as_deref().unwrap_or("-");
            Some(format!("{} (x-request-id {id}): {what}", p.key.trim_end()))
        };
        if resp.status != 200 {
            let excerpt: String = resp.body.chars().take(160).collect();
            return failure(format!("status {}: {excerpt}", resp.status));
        }
        if self.repeatable {
            if let Some(first) = self
                .seen
                .read()
                .expect("verifier lock poisoned")
                .get(&p.key)
            {
                if first != &resp.body {
                    return failure("answer differs from the first answer".to_string());
                }
                return None;
            }
        }
        if let Err(e) = verify(p.request, &resp.body, &self.anchors) {
            return failure(e);
        }
        if self.repeatable {
            self.seen
                .write()
                .expect("verifier lock poisoned")
                .insert(p.key.clone(), resp.body.clone());
        }
        None
    }
}

fn field<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

fn str_at<'a>(v: &'a Value, path: &[&str]) -> Result<&'a str, String> {
    field(v, path)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("no string at {}", path.join(".")))
}

fn num_at(v: &Value, path: &[&str]) -> Result<f64, String> {
    field(v, path)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("no number at {}", path.join(".")))
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} is {got:?}, expected {want:?}"))
    }
}

/// Checks one response body against the reference output, the tune table,
/// or the in-process query solver.
fn verify(request: &Request, body: &str, anchors: &[TuneAnchor]) -> Result<(), String> {
    if let Request::Run { id, text: true } = request {
        let want = reference::section(REPRO_OUTPUT, id.name()).ok_or("no reference section")?;
        return expect_eq("text body", body == want, true);
    }
    let doc = json::parse(body).map_err(|e| e.to_string())?;
    match request {
        Request::Run { id, .. } => {
            expect_eq(
                "schema",
                str_at(&doc, &["schema"])?,
                "stream-scaling.report.v1",
            )?;
            expect_eq("id", str_at(&doc, &["id"])?, id.name())
        }
        Request::Tune {
            app,
            clusters,
            alus,
        } => {
            expect_eq(
                "schema",
                str_at(&doc, &["schema"])?,
                "stream-scaling.tune.v1",
            )?;
            expect_eq("app", str_at(&doc, &["app"])?, app.name())?;
            expect_eq(
                "C",
                num_at(&doc, &["shape", "clusters"])?,
                f64::from(*clusters),
            )?;
            expect_eq(
                "N",
                num_at(&doc, &["shape", "alus_per_cluster"])?,
                f64::from(*alus),
            )?;
            let default = num_at(&doc, &["default_cycles"])?;
            let tuned = num_at(&doc, &["tuned_cycles"])?;
            if tuned > default {
                return Err(format!("tuned_cycles {tuned} > default_cycles {default}"));
            }
            match anchors
                .iter()
                .find(|a| a.app == app.name() && (a.clusters, a.alus) == (*clusters, *alus))
            {
                Some(a) => expect_eq(
                    "(default, tuned) cycles",
                    (default, tuned),
                    (a.default_cycles as f64, a.tuned_cycles as f64),
                ),
                None => Ok(()),
            }
        }
        Request::Query(q) => {
            let want = q
                .space_query()
                .solve()
                .ok_or("the library finds no feasible shape")?;
            expect_eq(
                "schema",
                str_at(&doc, &["schema"])?,
                "stream-scaling.space.v1",
            )?;
            expect_eq("minimize", str_at(&doc, &["minimize"])?, q.minimize.name())?;
            expect_eq(
                "shape",
                (
                    num_at(&doc, &["shape", "clusters"])?,
                    num_at(&doc, &["shape", "alus_per_cluster"])?,
                ),
                (
                    f64::from(want.shape.clusters),
                    f64::from(want.shape.alus_per_cluster),
                ),
            )?;
            expect_eq("value", num_at(&doc, &["value"])?, want.value)?;
            expect_eq(
                "(evaluated, feasible)",
                (num_at(&doc, &["evaluated"])?, num_at(&doc, &["feasible"])?),
                (want.evaluated as f64, want.feasible as f64),
            )
        }
        Request::Sweep(ids) => {
            expect_eq(
                "schema",
                str_at(&doc, &["schema"])?,
                "stream-scaling.sweep.v1",
            )?;
            let reports = field(&doc, &["reports"])
                .and_then(Value::as_array)
                .ok_or("no reports array")?;
            let got: Vec<&str> = reports
                .iter()
                .map(|r| str_at(r, &["id"]))
                .collect::<Result<_, _>>()?;
            expect_eq("report ids", got, ids.iter().map(|id| id.name()).collect())
        }
    }
}

/// What a closed loop measured.
#[derive(Debug, Default)]
struct LoopResult {
    /// Latency in ms of every attempted request.
    latencies_ms: Vec<f64>,
    /// When each attempted request completed, in seconds from the start.
    done_s: Vec<f64>,
    failures: Vec<String>,
    /// Requests sent.
    attempted: usize,
    /// Requests still owed to the minimum when the daemon exited.
    owed: usize,
    /// First send to last completion.
    window: Duration,
}

/// Sends `requests` (cycling) from [`JOBS`] client threads, each sending
/// its next request when its previous one completes, until at least
/// `min` were sent and `deadline` (if any) has passed. If the daemon exits,
/// the requests still owed to `min` count as failed.
fn closed_loop(
    addr: SocketAddr,
    requests: &[Prepared<'_>],
    min: usize,
    deadline: Option<Instant>,
    exited: &AtomicBool,
    verifier: &Verifier,
) -> LoopResult {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client: Vec<LoopResult> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..JOBS)
            .map(|_| {
                s.spawn(|| {
                    let mut r = LoopResult::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= min && deadline.is_none_or(|d| Instant::now() >= d) {
                            break;
                        }
                        if exited.load(Ordering::SeqCst) {
                            break;
                        }
                        let p = &requests[i % requests.len()];
                        let t = Instant::now();
                        let resp = http::request(
                            addr,
                            p.request.method(),
                            &p.path,
                            p.body.as_deref(),
                            REQUEST_TIMEOUT,
                        );
                        r.attempted += 1;
                        r.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        r.done_s.push(start.elapsed().as_secs_f64());
                        let failure = match resp {
                            Ok(resp) => verifier.check(p, &resp),
                            Err(e) => Some(format!("{}: {e}", p.key.trim_end())),
                        };
                        r.failures.extend(failure);
                    }
                    r
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = LoopResult {
        window: start.elapsed(),
        ..LoopResult::default()
    };
    for r in per_client {
        all.attempted += r.attempted;
        all.latencies_ms.extend(r.latencies_ms);
        all.done_s.extend(r.done_s);
        all.failures.extend(r.failures);
    }
    all.owed = min.saturating_sub(all.attempted);
    all
}

/// Records a loop's requests, and those it still owed, as timed
/// operations.
fn count_operations(r: &LoopResult, o: &mut Outcome) {
    for f in &r.failures {
        o.operation(Some(f.clone()));
    }
    for _ in r.failures.len()..r.attempted {
        o.operation(None);
    }
    for _ in 0..r.owed {
        o.operation(Some(
            "stream-serve exited before this request was sent".to_string(),
        ));
    }
}

/// Counters the daemon exports, sampled around a measured window.
struct Scrape {
    prom: BTreeMap<String, f64>,
    stats: Value,
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let get = |path: &str| -> Result<String, String> {
        match http::request(addr, "GET", path, None, REQUEST_TIMEOUT) {
            Ok(r) if r.status == 200 => Ok(r.body),
            Ok(r) => Err(format!("GET {path}: status {}", r.status)),
            Err(e) => Err(format!("GET {path}: {e}")),
        }
    };
    Ok(Scrape {
        prom: layers::parse_prometheus(&get("/metrics")?),
        stats: json::parse(&get("/v1/stats")?).map_err(|e| e.to_string())?,
    })
}

/// Sums of daemon-side counter deltas over every measured window.
#[derive(Debug, Default)]
struct ServeDeltas {
    prom: BTreeMap<String, f64>,
    stats: BTreeMap<String, f64>,
}

impl ServeDeltas {
    fn add(&mut self, before: &Scrape, after: &Scrape) {
        for (k, v) in &after.prom {
            *self.prom.entry(k.clone()).or_default() +=
                v - before.prom.get(k).copied().unwrap_or(0.0);
        }
        for path in [
            ["planner", "lookups"],
            ["planner", "computed"],
            ["kernel_cache", "compiles"],
        ] {
            let at = |s: &Scrape| field(&s.stats, &path).and_then(Value::as_f64);
            if let (Some(b), Some(a)) = (at(before), at(after)) {
                *self.stats.entry(path.join(".")).or_default() += a - b;
            }
        }
    }

    /// The `serve` layer metrics; `client_mean_ms` is the clients' mean
    /// request latency over the same windows.
    fn record(&self, client_mean_ms: f64, m: &mut Metrics) {
        let p = |k: String| self.prom.get(&k).copied().unwrap_or(0.0);
        let (mut sum_us, mut count) = (0.0, 0.0);
        for ep in ENDPOINTS {
            let (s, c) = (
                p(format!("serve_latency_{ep}_sum")),
                p(format!("serve_latency_{ep}_count")),
            );
            if c > 0.0 {
                m.set_sampled(
                    format!("serve.server_ms.mean.{ep}"),
                    s / c * 1e-3,
                    "ms",
                    Some(c as usize),
                );
            }
            sum_us += s;
            count += c;
        }
        if count > 0.0 {
            m.set(
                "serve.queue_ms.mean",
                client_mean_ms - sum_us / count * 1e-3,
                "ms",
            );
        }
        m.set("serve.inline", p("serve_inline".to_string()), "count");
        let s = |k: &str| self.stats.get(k).copied().unwrap_or(0.0);
        let (lookups, computed) = (s("planner.lookups"), s("planner.computed"));
        m.set("serve.planner.lookups", lookups, "count");
        m.set("serve.planner.computed", computed, "count");
        if lookups > 0.0 {
            m.set("serve.planner.hit_ratio", 1.0 - computed / lookups, "ratio");
        }
        m.set(
            "serve.kernel_cache.compiles",
            s("kernel_cache.compiles"),
            "count",
        );
    }
}

/// One measured window of one daemon.
#[derive(Debug)]
struct Pass {
    loop_result: LoopResult,
    cpu_s: Option<f64>,
    peak_rss_mb: Option<f64>,
}

/// Sends `requests` through a closed loop against `daemon`, sampling its
/// CPU, memory and counters around the window.
fn measure(
    daemon: &Daemon,
    requests: &[Prepared<'_>],
    min: usize,
    deadline: Option<Instant>,
    verifier: &Verifier,
    deltas: &mut ServeDeltas,
    o: &mut Outcome,
) -> Pass {
    let before = scrape(daemon.addr());
    let cpu0 = daemon.cpu_s();
    let exited = daemon.exit_flag();
    let loop_result = closed_loop(daemon.addr(), requests, min, deadline, &exited, verifier);
    let cpu1 = daemon.cpu_s();
    let peak_rss_mb = daemon.peak_rss_mb();
    match (before, scrape(daemon.addr())) {
        (Ok(b), Ok(a)) => deltas.add(&b, &a),
        (Err(e), _) | (_, Err(e)) => o.error(format!("scraping daemon counters: {e}")),
    }
    Pass {
        loop_result,
        cpu_s: cpu0.zip(cpu1).map(|(a, b)| b - a),
        peak_rss_mb,
    }
}

/// Wall times of consecutive blocks of `chunk` requests, from the
/// requests' completion times (a trailing partial block is left out).
fn chunk_walls(done_s: &[f64], chunk: usize) -> Vec<f64> {
    let done = stats::sorted(done_s);
    let mut prev = 0.0;
    (1..=done.len() / chunk)
        .map(|k| {
            let t = done[k * chunk - 1];
            let wall = t - prev;
            prev = t;
            wall
        })
        .collect()
}

/// The end-to-end metrics of a set of passes, with `chunk` requests as
/// the unit of `wall_s` and `cpu_s`: per-block wall, daemon CPU per block,
/// peak memory, and per-request rate, latency and CPU.
fn record(passes: &[Pass], chunk: usize, setup: &[f64], m: &mut Metrics) {
    let median = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    let walls: Vec<f64> = passes
        .iter()
        .flat_map(|p| chunk_walls(&p.loop_result.done_s, chunk))
        .collect();
    let windows: f64 = passes
        .iter()
        .map(|p| p.loop_result.window.as_secs_f64())
        .sum();
    let requests: usize = passes.iter().map(|p| p.loop_result.attempted).sum();
    m.set_sampled("setup_s", median(setup), "s", Some(setup.len()));
    m.set_sampled("wall_s", median(&walls), "s", Some(walls.len()));
    let cpu: Option<Vec<f64>> = passes.iter().map(|p| p.cpu_s).collect();
    let rss: Option<Vec<f64>> = passes.iter().map(|p| p.peak_rss_mb).collect();
    if let (Some(cpu), Some(rss)) = (cpu, rss) {
        let per_chunk: Vec<f64> = cpu
            .iter()
            .zip(passes)
            .map(|(c, p)| c * chunk as f64 / p.loop_result.attempted.max(1) as f64)
            .collect();
        m.set_sampled("cpu_s", median(&per_chunk), "s", Some(passes.len()));
        m.set_sampled(
            "peak_rss_mb",
            rss.iter().copied().fold(0.0, f64::max),
            "MiB",
            Some(passes.len()),
        );
        m.set_sampled(
            "cpu_ms_per_req",
            cpu.iter().sum::<f64>() * 1e3 / requests as f64,
            "ms",
            Some(requests),
        );
    }
    m.set_sampled(
        "throughput_rps",
        requests as f64 / windows,
        "req/s",
        Some(requests),
    );
    let ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.loop_result.latencies_ms.iter().copied())
        .collect();
    if let Some(s) = Summary::of(&ms) {
        m.set_sampled("latency_ms.p50", s.p50, "ms", Some(s.n));
        m.set_sampled("latency_ms.p90", s.p90, "ms", Some(s.n));
        m.set_sampled("latency_ms.p99", s.p99, "ms", Some(s.n));
        if let Some(p) = stats::tail_percentile(s.n) {
            let sorted = stats::sorted(&ms);
            m.set_sampled(
                "latency_ms.tail",
                stats::percentile(&sorted, p).unwrap_or(f64::NAN),
                "ms",
                Some(s.n),
            );
            m.set("latency_ms.tail_percentile", p, "%");
        }
    }
}

fn mean_ms(passes: &[Pass]) -> f64 {
    let all: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.loop_result.latencies_ms.iter().copied())
        .collect();
    all.iter().sum::<f64>() / all.len().max(1) as f64
}

/// Requests every distinct key once, experiments first, so every later
/// request is a memo hit. Failures are set-up errors.
fn prime(
    addr: SocketAddr,
    keys: &[Request],
    exited: &AtomicBool,
    verifier: &Verifier,
    o: &mut Outcome,
) {
    let experiments = keys
        .iter()
        .take_while(|r| matches!(r, Request::Run { .. }))
        .count();
    for part in [&keys[..experiments], &keys[experiments..]] {
        let prepared = prepare(part);
        let r = closed_loop(addr, &prepared, prepared.len(), None, exited, verifier);
        for f in &r.failures {
            o.error(format!("priming: {f}"));
        }
        if r.owed > 0 {
            o.error(format!(
                "priming: stream-serve exited with {} keys unsent",
                r.owed
            ));
        }
    }
}

/// Runs `serve_memo` or `serve_tune`.
pub fn run(env: &Env, workload: Workload) -> Outcome {
    let mut o = Outcome::default();
    match workload {
        Workload::ServeMemo => memo(env, &mut o),
        _ => tune(env, &mut o),
    }
    o
}

fn spawn(env: &Env, name: &str) -> Result<Daemon, String> {
    let dir = env.fresh_dir(name).map_err(|e| format!("cache dir: {e}"))?;
    Daemon::spawn(&env.serve, &dir, JOBS, crate::clean_env)
        .map_err(|e| format!("starting stream-serve: {e}"))
}

fn memo(env: &Env, o: &mut Outcome) {
    let w = workload::serve_memo(env.seed, MEMO_MIN_REQUESTS);
    let verifier = Verifier::new(true);
    let start = Instant::now();
    let daemon = match spawn(env, "memo") {
        Ok(d) => d,
        Err(e) => {
            o.error(e);
            return;
        }
    };
    prime(daemon.addr(), &w.keys, &daemon.exit_flag(), &verifier, o);
    let setup = [start.elapsed().as_secs_f64()];
    let requests = prepare(&w.requests);
    let mut deltas = ServeDeltas::default();
    let deadline = Instant::now() + Duration::from_secs_f64(env.seconds);
    let pass = measure(
        &daemon,
        &requests,
        MEMO_MIN_REQUESTS,
        Some(deadline),
        &verifier,
        &mut deltas,
        o,
    );
    if !daemon.stop() {
        o.error("stream-serve did not shut down cleanly");
    }
    count_operations(&pass.loop_result, o);
    let passes = [pass];
    record(&passes, MEMO_MIN_REQUESTS, &setup, &mut o.metrics);
    if env.traced {
        deltas.record(mean_ms(&passes), &mut o.layers);
        let replay = &w.requests[..MEMO_TRACED_REQUESTS.min(w.requests.len())];
        traced_pass(
            env,
            Workload::ServeMemo,
            &w.keys,
            replay,
            mean_ms(&passes),
            o,
        );
    }
}

fn tune(env: &Env, o: &mut Outcome) {
    // Tune answers carry per-search compile counts that depend on what
    // the other client's search compiled first, so they are checked in
    // full every time rather than compared byte for byte.
    let verifier = Verifier::new(false);
    let mut setup = Vec::new();
    for i in 0..TUNE_EXTRA_SPAWNS {
        let start = Instant::now();
        match spawn(env, &format!("tune-setup-{i}")) {
            Ok(d) => {
                setup.push(start.elapsed().as_secs_f64());
                d.stop();
            }
            Err(e) => o.error(e),
        }
    }
    // Each pass sends the key space in its own seeded order, so a run of
    // several passes averages over several pairings of concurrent searches.
    let order = |pass: usize| workload::serve_tune(env.seed.wrapping_add(pass as u64));
    let mut deltas = ServeDeltas::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut measured = 0.0;
    loop {
        let last = passes
            .last()
            .map_or(0.0, |p| p.loop_result.window.as_secs_f64());
        if passes.len() >= MIN_TUNE_PASSES && measured + last > env.seconds {
            break;
        }
        let keys = order(passes.len());
        let requests = prepare(&keys);
        let start = Instant::now();
        let daemon = match spawn(env, &format!("tune-{}", passes.len())) {
            Ok(d) => d,
            Err(e) => {
                o.error(e);
                break;
            }
        };
        setup.push(start.elapsed().as_secs_f64());
        let pass = measure(
            &daemon,
            &requests,
            requests.len(),
            None,
            &verifier,
            &mut deltas,
            o,
        );
        if !daemon.stop() {
            o.error("stream-serve did not shut down cleanly");
        }
        count_operations(&pass.loop_result, o);
        measured += pass.loop_result.window.as_secs_f64();
        passes.push(pass);
    }
    if passes.is_empty() {
        return;
    }
    let first = order(0);
    record(&passes, first.len(), &setup, &mut o.metrics);
    if env.traced {
        deltas.record(mean_ms(&passes), &mut o.layers);
        traced_pass(env, Workload::ServeTune, &[], &first, mean_ms(&passes), o);
    }
}

/// The workload again on an in-process daemon with tracing on: priming
/// `keys`, then replaying `replay`; then the layer metrics and probes.
fn traced_pass(
    env: &Env,
    workload: Workload,
    keys: &[Request],
    replay: &[Request],
    untraced_mean_ms: f64,
    o: &mut Outcome,
) {
    let dir = match env.fresh_dir("traced") {
        Ok(dir) => dir,
        Err(e) => {
            o.error(format!("cache dir: {e}"));
            return;
        }
    };
    stream_trace::enable();
    let _ = stream_trace::take_events();
    let start = Instant::now();
    let handle = match start_in_process(&dir) {
        Ok(h) => h,
        Err(e) => {
            stream_trace::disable();
            o.error(format!("in-process daemon: {e}"));
            return;
        }
    };
    let addr = handle.addr();
    let verifier = Verifier::new(workload == Workload::ServeMemo);
    let never = AtomicBool::new(false);
    prime(addr, keys, &never, &verifier, o);
    let prepared = prepare(replay);
    let r = closed_loop(addr, &prepared, prepared.len(), None, &never, &verifier);
    let wall_s = start.elapsed().as_secs_f64();
    count_operations(&r, o);
    let prom_text = match http::request(addr, "GET", "/metrics", None, REQUEST_TIMEOUT) {
        Ok(resp) if resp.status == 200 => resp.body,
        _ => {
            o.error("in-process daemon: GET /metrics failed");
            String::new()
        }
    };
    match http::request(addr, "POST", "/v1/shutdown", None, REQUEST_TIMEOUT) {
        Ok(resp) if resp.status == 200 => handle.join(),
        _ => {
            o.error("in-process daemon: shutdown failed");
            handle.stop();
        }
    }
    std::thread::sleep(SPAN_FLUSH_GRACE);
    stream_trace::disable();
    let events = stream_trace::take_events();
    let traced_mean = r.latencies_ms.iter().sum::<f64>() / r.latencies_ms.len().max(1) as f64;
    o.layers.set(
        "trace.overhead_ratio",
        traced_mean / untraced_mean_ms,
        "ratio",
    );
    let doc = stream_trace::chrome_trace_json(&events);
    traced::finish(env, workload, &doc, &prom_text, wall_s, &dir, o);
}

fn start_in_process(dir: &std::path::Path) -> std::io::Result<stream_serve::ServerHandle> {
    start(&ServerConfig {
        addr: None,
        workers: Some(JOBS),
        cache_root: Some(dir.to_path_buf()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stream_apps::AppId;
    use stream_repro::ExperimentId;

    fn in_process() -> stream_serve::ServerHandle {
        start(&ServerConfig {
            addr: None,
            workers: Some(JOBS),
            cache_root: None,
        })
        .unwrap()
    }

    #[test]
    fn verify_accepts_the_daemon_and_rejects_wrong_answers() {
        let handle = in_process();
        let addr = handle.addr();
        let w = workload::serve_memo(5, 0);
        let cheap: Vec<Request> = w
            .keys
            .iter()
            .filter(|r| match r {
                Request::Run { id, .. } => *id == ExperimentId::Table1,
                Request::Query(_) => true,
                _ => false,
            })
            .cloned()
            .chain([Request::Tune {
                app: AppId::Fft1k,
                clusters: 8,
                alus: 5,
            }])
            .collect();
        let verifier = Verifier::new(true);
        let never = AtomicBool::new(false);
        let prepared = prepare(&cheap);
        let r = closed_loop(addr, &prepared, prepared.len() * 2, None, &never, &verifier);
        assert_eq!(r.attempted, prepared.len() * 2);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.latencies_ms.len(), r.attempted);
        assert_eq!(r.done_s.len(), r.attempted);

        let anchors = reference::tune_anchors(REPRO_OUTPUT).unwrap();
        let table1 = Request::Run {
            id: ExperimentId::Table1,
            text: true,
        };
        assert!(verify(&table1, "not the reference", &anchors).is_err());
        let tune = Request::Tune {
            app: AppId::Conv,
            clusters: 64,
            alus: 8,
        };
        let wrong = "{\"schema\":\"stream-scaling.tune.v1\",\"app\":\"CONV\",\
                     \"shape\":{\"clusters\":64,\"alus_per_cluster\":8},\
                     \"default_cycles\":85723,\"tuned_cycles\":73000}";
        assert!(verify(&tune, wrong, &anchors)
            .unwrap_err()
            .contains("cycles"));
        let slower = wrong.replace("73000", "90000");
        assert!(verify(&tune, &slower, &anchors)
            .unwrap_err()
            .contains("tuned_cycles"));
        let stop = http::request(addr, "POST", "/v1/shutdown", None, REQUEST_TIMEOUT).unwrap();
        assert_eq!(stop.status, 200);
        handle.join();
    }

    #[test]
    fn chunk_walls_split_completions_into_blocks() {
        let done = [0.5, 0.1, 0.3, 0.9, 0.7, 1.0, 1.2];
        let walls = chunk_walls(&done, 3);
        assert_eq!(walls.len(), 2);
        assert_eq!(walls[0], 0.5);
        assert!((walls[1] - 0.5).abs() < 1e-12);
        assert!(chunk_walls(&done, 8).is_empty());
    }

    #[test]
    fn a_dead_daemon_fails_the_owed_requests() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let reqs = workload::serve_tune(1);
        let prepared = prepare(&reqs);
        let dead = AtomicBool::new(true);
        let r = closed_loop(addr, &prepared, 120, None, &dead, &Verifier::new(false));
        assert_eq!((r.attempted, r.owed), (0, 120));
        let mut o = Outcome::default();
        count_operations(&r, &mut o);
        assert_eq!((o.attempted, o.failed), (120, 120));
    }
}
