//! The daemon: a TCP accept loop, thread-bounded dispatch, and the route
//! table mapping HTTP requests onto the [`Planner`] and the typed query
//! API.
//!
//! The accept thread spawns at most `workers - 1` connection threads at a
//! time, so total connection-handling parallelism is bounded no matter how
//! many clients connect. The planner's sweep engine counts its own
//! permits, so its jobs do not draw from this budget.
//! A connection that finds the budget spent is handled *inline on the
//! accept thread*: further accepts queue in the listen backlog until it
//! finishes, which is the daemon's rate limiting (clients see latency,
//! never dropped connections or unbounded threads).

use crate::http::{read_request, write_response, Request, RequestError, Response};
use crate::json::{object, parse, Value};
use crate::planner::Planner;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;
use stream_repro::{ExperimentId, Metric, SpaceQuery};

// Always-on daemon counters, registered once in the trace registry so
// `/metrics` reports them regardless of the tracing flag.
static CONNECTIONS: stream_trace::Counter = stream_trace::Counter::new();
static INLINE: stream_trace::Counter = stream_trace::Counter::new();
static REQUESTS: stream_trace::Counter = stream_trace::Counter::new();

/// Monotonic request-id source; ids are unique per daemon process and
/// echoed back as `X-Request-Id`.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

fn ensure_serve_metrics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        stream_trace::register_counter("serve.connection", &CONNECTIONS);
        stream_trace::register_counter("serve.inline", &INLINE);
        stream_trace::register_counter("serve.requests", &REQUESTS);
    });
}

/// The per-endpoint latency histogram name for a request path. A static
/// table (not the raw path) keys the histograms so hostile paths cannot
/// mint unbounded series.
fn latency_series(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("GET", "/health") => "serve.latency.health",
        ("GET", "/metrics") => "serve.latency.metrics",
        ("GET", "/v1/experiments") => "serve.latency.experiments",
        ("GET", p) if p.starts_with("/v1/run/") => "serve.latency.run",
        ("GET" | "POST", "/v1/sweep") => "serve.latency.sweep",
        ("POST", "/v1/query") => "serve.latency.query",
        ("GET", "/v1/tune") => "serve.latency.tune",
        ("GET", "/v1/stats") => "serve.latency.stats",
        ("POST", "/v1/shutdown") => "serve.latency.shutdown",
        _ => "serve.latency.other",
    }
}

/// Daemon configuration.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Bind address; `None` means loopback on an OS-assigned port.
    pub addr: Option<String>,
    /// Worker budget for the shared engine and for connection threads;
    /// `None` means host parallelism.
    pub workers: Option<usize>,
    /// Cache root for the persistent schedule and tuning tiers; `None`
    /// serves memory-only.
    pub cache_root: Option<PathBuf>,
}

/// A handle to a running daemon.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    planner: Arc<Planner>,
    accept_thread: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (useful with an OS-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The planner, for out-of-band statistics.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Signals shutdown and waits for the accept loop to exit.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock a pending accept.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_thread.join();
    }

    /// Blocks until the daemon shuts down (e.g. via `POST /v1/shutdown`).
    pub fn join(self) {
        let _ = self.accept_thread.join();
    }
}

/// Starts the daemon and returns once the socket is bound and accepting.
///
/// # Errors
///
/// Propagates bind and cache-directory failures.
pub fn start(config: &ServerConfig) -> io::Result<ServerHandle> {
    let engine = match config.workers {
        Some(n) => stream_grid::Engine::new(n),
        None => stream_grid::Engine::with_default_parallelism(),
    };
    ensure_serve_metrics();
    if let Some(root) = &config.cache_root {
        // Never fails on an already-attached tier: a second server in the
        // same process simply shares the first one's schedule cache.
        stream_grid::attach_global_disk(root)?;
        // Share the same root with the auto-tuner's results tier, so
        // `/v1/tune` answers warm points with zero searches after a restart.
        stream_tune::attach_global_disk(root)?;
    }
    let planner = Arc::new(Planner::new(engine));
    let listener = TcpListener::bind(config.addr.as_deref().unwrap_or("127.0.0.1:0"))?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));

    let accept_thread = {
        let planner = Arc::clone(&planner);
        let stop = Arc::clone(&stop);
        thread::Builder::new()
            .name("stream-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, addr, &planner, &stop))?
    };

    Ok(ServerHandle {
        addr,
        stop,
        planner,
        accept_thread,
    })
}

fn accept_loop(
    listener: &TcpListener,
    addr: SocketAddr,
    planner: &Arc<Planner>,
    stop: &Arc<AtomicBool>,
) {
    let max_threads = planner.engine().workers() - 1;
    // Live connection threads. Only this thread increments it and workers
    // only decrement it, so checking and then adding cannot overshoot; it
    // publishes no other data, so relaxed ordering suffices.
    let live = Arc::new(AtomicUsize::new(0));
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((conn, _peer)) = listener.accept() else {
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        CONNECTIONS.incr();
        // Bounded dispatch: under the thread budget, the connection gets
        // its own thread; over it the accept thread serves it itself, so
        // pending clients wait in the listen backlog — backpressure, not
        // thread growth.
        if live.load(Ordering::Relaxed) < max_threads {
            live.fetch_add(1, Ordering::Relaxed);
            let planner = Arc::clone(planner);
            let stop = Arc::clone(stop);
            let done = Arc::clone(&live);
            let spawned = thread::Builder::new()
                .name("stream-serve-worker".to_string())
                .spawn(move || {
                    handle_connection(conn, addr, &planner, &stop);
                    done.fetch_sub(1, Ordering::Relaxed);
                });
            if spawned.is_err() {
                live.fetch_sub(1, Ordering::Relaxed);
            }
        } else {
            INLINE.incr();
            handle_connection(conn, addr, planner, stop);
        }
    }
}

fn handle_connection(mut conn: TcpStream, addr: SocketAddr, planner: &Planner, stop: &AtomicBool) {
    // Every request gets a process-unique id, correlated with all work
    // done on its behalf: spans opened under this scope — including grid
    // jobs and scheduler compiles on engine worker threads — carry a
    // `req=<id>` annotation, and the response echoes `X-Request-Id`.
    let request_id = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
    let _correlation = stream_trace::request_scope(Some(request_id));
    REQUESTS.incr();
    let response = match read_request(&mut conn) {
        Ok(request) => {
            let shutting_down = request.method == "POST" && request.path == "/v1/shutdown";
            let started = Instant::now();
            let response = route(&request, planner);
            // Always-on per-endpoint latency: record through the handle,
            // not the flag-gated `record`, so `/metrics` sees latency
            // distributions without tracing enabled.
            stream_trace::histogram(latency_series(&request.method, &request.path))
                .record(started.elapsed().as_micros() as u64);
            if shutting_down && response.status == 200 {
                stop.store(true, Ordering::SeqCst);
            }
            response
        }
        Err(RequestError::Bad { status, reason }) => error_response(status, reason, None),
        Err(RequestError::Io(_)) => return, // nothing to answer on
    };
    let response = response.with_header("x-request-id", request_id.to_string());
    let _ = write_response(&mut conn, &response);
    drop(conn);
    if stop.load(Ordering::SeqCst) {
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(addr);
    }
}

fn error_response(status: u16, message: &str, suggestion: Option<&str>) -> Response {
    let mut fields = vec![("error", Value::String(message.to_string()))];
    if let Some(s) = suggestion {
        fields.push(("suggestion", Value::String(s.to_string())));
    }
    Response::json(status, object(fields).render())
}

/// Maps one request to one response. Pure: no socket I/O, so the whole
/// route table is unit-testable without a connection.
pub(crate) fn route(request: &Request, planner: &Planner) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => Response::json(200, object([("ok", Value::Bool(true))]).render()),
        ("GET", "/metrics") => metrics_response(planner),
        ("GET", "/v1/experiments") => experiments_response(),
        ("GET", path) if path.starts_with("/v1/run/") => {
            run_response(&path["/v1/run/".len()..], request, planner)
        }
        ("GET" | "POST", "/v1/sweep") => sweep_response(request, planner),
        ("POST", "/v1/query") => query_response(request),
        ("GET", "/v1/tune") => tune_response(request, planner),
        ("GET", "/v1/stats") => stats_response(planner),
        ("POST", "/v1/shutdown") => {
            Response::json(200, object([("ok", Value::Bool(true))]).render())
        }
        ("GET" | "POST", _) => error_response(404, "no such endpoint", None),
        _ => error_response(405, "method not allowed", None),
    }
}

fn experiments_response() -> Response {
    let ids = Value::Array(
        ExperimentId::ALL
            .iter()
            .map(|id| Value::String(id.name().to_string()))
            .collect(),
    );
    Response::json(200, object([("experiments", ids)]).render())
}

fn parse_experiment(name: &str) -> Result<ExperimentId, Response> {
    name.parse::<ExperimentId>().map_err(|e| {
        error_response(
            404,
            &format!("unknown experiment `{}`", e.input),
            e.suggestion.map(|s| s.name()),
        )
    })
}

fn run_response(name: &str, request: &Request, planner: &Planner) -> Response {
    let id = match parse_experiment(name) {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    let cell = planner.cell(id);
    match request.query_param("format").unwrap_or("json") {
        "json" => Response::json(200, cell.json.clone()),
        // Byte-identical to `repro <id>` stdout — what CI diffs against.
        "text" => Response::text(200, cell.text.clone()),
        other => error_response(400, &format!("unknown format `{other}`"), None),
    }
}

fn requested_experiments(request: &Request) -> Result<Vec<ExperimentId>, Response> {
    let names: Vec<String> = if request.method == "GET" {
        match request.query_param("experiments") {
            Some("all") => return Ok(ExperimentId::ALL.to_vec()),
            Some(list) => list.split(',').map(str::to_string).collect(),
            None => {
                return Err(error_response(
                    400,
                    "missing `experiments` query parameter",
                    None,
                ))
            }
        }
    } else {
        let body = parse(&request.body)
            .map_err(|e| error_response(400, &format!("bad request body: {e}"), None))?;
        match body.get("experiments") {
            Some(Value::String(s)) if s == "all" => return Ok(ExperimentId::ALL.to_vec()),
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| {
                    v.as_str().map(str::to_string).ok_or_else(|| {
                        error_response(400, "`experiments` must be an array of strings", None)
                    })
                })
                .collect::<Result<_, _>>()?,
            _ => {
                return Err(error_response(
                    400,
                    "body needs an `experiments` array (or the string \"all\")",
                    None,
                ))
            }
        }
    };
    if names.is_empty() {
        return Err(error_response(400, "no experiments requested", None));
    }
    names
        .iter()
        .map(|n| parse_experiment(n))
        .collect::<Result<_, _>>()
}

fn sweep_response(request: &Request, planner: &Planner) -> Response {
    let ids = match requested_experiments(request) {
        Ok(ids) => ids,
        Err(resp) => return resp,
    };
    let cells = planner.cells(&ids);
    let reports = Value::Array(cells.iter().map(|c| Value::Raw(c.json.clone())).collect());
    Response::json(
        200,
        object([
            (
                "schema",
                Value::String("stream-scaling.sweep.v1".to_string()),
            ),
            ("reports", reports),
        ])
        .render(),
    )
}

fn parse_metric(v: &Value) -> Result<Metric, Response> {
    let name = v
        .as_str()
        .ok_or_else(|| error_response(400, "metric must be a string", None))?;
    name.parse::<Metric>()
        .map_err(|e| error_response(400, &e.to_string(), None))
}

fn u32_list(v: &Value, what: &str) -> Result<Vec<u32>, Response> {
    let items = v
        .as_array()
        .ok_or_else(|| error_response(400, &format!("`{what}` must be an array"), None))?;
    items
        .iter()
        .map(|item| {
            item.as_f64()
                .filter(|n| n.fract() == 0.0 && (1.0..=65536.0).contains(n))
                .map(|n| n as u32)
                .ok_or_else(|| {
                    error_response(
                        400,
                        &format!("`{what}` entries must be integers in 1..=65536"),
                        None,
                    )
                })
        })
        .collect()
}

fn query_response(request: &Request) -> Response {
    let body = match parse(&request.body) {
        Ok(v) => v,
        Err(e) => return error_response(400, &format!("bad request body: {e}"), None),
    };
    let Some(minimize) = body.get("minimize") else {
        return error_response(400, "body needs a `minimize` metric", None);
    };
    let objective = match parse_metric(minimize) {
        Ok(m) => m,
        Err(resp) => return resp,
    };
    let mut query = SpaceQuery::minimize(objective);
    if let Some(cs) = body.get("clusters") {
        match u32_list(cs, "clusters") {
            Ok(cs) => query = query.clusters(cs),
            Err(resp) => return resp,
        }
    }
    if let Some(ns) = body.get("alus_per_cluster") {
        match u32_list(ns, "alus_per_cluster") {
            Ok(ns) => query = query.alus_per_cluster(ns),
            Err(resp) => return resp,
        }
    }
    if let Some(cons) = body.get("constraints") {
        let Some(items) = cons.as_array() else {
            return error_response(400, "`constraints` must be an array", None);
        };
        for item in items {
            let metric = match item.get("metric").map(parse_metric) {
                Some(Ok(m)) => m,
                Some(Err(resp)) => return resp,
                None => return error_response(400, "constraint needs a `metric`", None),
            };
            let Some(max) = item.get("max").and_then(Value::as_f64) else {
                return error_response(400, "constraint needs a numeric `max`", None);
            };
            query = query.subject_to(metric, max);
        }
    }
    match query.solve() {
        Some(answer) => Response::json(
            200,
            object([
                (
                    "schema",
                    Value::String("stream-scaling.space.v1".to_string()),
                ),
                ("minimize", Value::String(objective.name().to_string())),
                (
                    "shape",
                    object([
                        ("clusters", Value::Number(f64::from(answer.shape.clusters))),
                        (
                            "alus_per_cluster",
                            Value::Number(f64::from(answer.shape.alus_per_cluster)),
                        ),
                    ]),
                ),
                ("value", Value::Number(answer.value)),
                ("evaluated", Value::Number(answer.evaluated as f64)),
                ("feasible", Value::Number(answer.feasible as f64)),
            ])
            .render(),
        ),
        None => error_response(422, "no shape satisfies the constraints", None),
    }
}

/// `GET /v1/tune?app=NAME[&clusters=C][&alus_per_cluster=N]`: the
/// auto-tuner's verdict for one application on one machine shape —
/// default vs tuned cycle counts and the winning configuration. Shape
/// defaults to the paper baseline (C=8, N=5); results are memoized per
/// daemon and persisted under the cache root, so repeated queries are
/// reads, not searches. A shape the application's default program does not
/// fit (its strips overflow the SRF) answers 422.
fn tune_response(request: &Request, planner: &Planner) -> Response {
    let Some(name) = request.query_param("app") else {
        return error_response(400, "missing `app` query parameter", None);
    };
    let Some(app) = stream_apps::AppId::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
    else {
        let known = stream_apps::AppId::ALL.map(|a| a.name()).join(" ");
        return error_response(404, &format!("unknown app `{name}`; known: {known}"), None);
    };
    let dim = |key: &str, default: u32, max: u32| -> Result<u32, Response> {
        match request.query_param(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse::<u32>()
                .ok()
                .filter(|n| (1..=max).contains(n))
                .ok_or_else(|| {
                    error_response(
                        400,
                        &format!("`{key}` must be an integer in 1..={max}"),
                        None,
                    )
                }),
        }
    };
    let clusters = match dim("clusters", 8, 1024) {
        Ok(n) => n,
        Err(resp) => return resp,
    };
    let alus = match dim("alus_per_cluster", 5, 64) {
        Ok(n) => n,
        Err(resp) => return resp,
    };
    let t = match planner.tuned(app, clusters, alus) {
        Ok(t) => t,
        Err(e) => return error_response(422, &e.to_string(), None),
    };
    let winner = object([
        (
            "unroll_factors",
            Value::Array(
                t.candidate
                    .unroll_factors
                    .iter()
                    .map(|&u| Value::Number(f64::from(u)))
                    .collect(),
            ),
        ),
        (
            "strip_scale",
            Value::Number(f64::from(t.candidate.strip_scale)),
        ),
        ("describe", Value::String(t.candidate.describe())),
    ]);
    Response::json(
        200,
        object([
            (
                "schema",
                Value::String("stream-scaling.tune.v1".to_string()),
            ),
            ("app", Value::String(app.name().to_string())),
            (
                "shape",
                object([
                    ("clusters", Value::Number(f64::from(clusters))),
                    ("alus_per_cluster", Value::Number(f64::from(alus))),
                ]),
            ),
            ("default_cycles", Value::Number(t.default_cycles as f64)),
            ("tuned_cycles", Value::Number(t.tuned_cycles as f64)),
            ("speedup", Value::Number(t.speedup())),
            ("winner", winner),
            (
                "search",
                object([
                    ("from_disk", Value::Bool(t.from_disk)),
                    ("evaluated", Value::Number(t.evaluated as f64)),
                    ("pruned", Value::Number(t.pruned as f64)),
                    ("sched_compiles", Value::Number(t.sched_compiles as f64)),
                ]),
            ),
        ])
        .render(),
    )
}

/// `GET /metrics`: Prometheus text exposition over the whole registry.
/// Scraping samples current state first — the sweep engine's permits,
/// cache residency, disk bytes, planner cells — so gauges are fresh as of
/// this response, and touches the tuner's counter registrations so their
/// series exist even on a daemon that has not compiled anything yet.
fn metrics_response(planner: &Planner) -> Response {
    ensure_serve_metrics();
    stream_grid::sample_gauges(planner.engine());
    let _ = stream_tune::stats(); // registers the tune.* series
    let p = planner.stats();
    // Planner counters are per-instance (a process can host several
    // planners), so the global registry carries them as sampled gauges
    // from the planner actually serving this scrape.
    stream_trace::set_gauge("serve.planner.lookups", p.lookups);
    stream_trace::set_gauge("serve.planner.computed", p.computed);
    stream_trace::set_gauge("serve.planner.cells", planner.cells_resident() as u64);
    Response::prometheus(200, stream_trace::render_prometheus())
}

fn stats_response(planner: &Planner) -> Response {
    let p = planner.stats();
    let k = stream_grid::global_cache().stats();
    let t = stream_tune::stats();
    Response::json(
        200,
        object([
            (
                "planner",
                object([
                    ("lookups", Value::Number(p.lookups as f64)),
                    ("computed", Value::Number(p.computed as f64)),
                ]),
            ),
            (
                "kernel_cache",
                object([
                    ("hits", Value::Number(k.hits as f64)),
                    ("misses", Value::Number(k.misses as f64)),
                    ("compiles", Value::Number(k.compiles as f64)),
                    ("factor_compiles", Value::Number(k.factor_compiles as f64)),
                    ("disk_hits", Value::Number(k.disk_hits as f64)),
                    ("disk_misses", Value::Number(k.disk_misses as f64)),
                ]),
            ),
            (
                "tune",
                object([
                    ("searches", Value::Number(t.searches as f64)),
                    ("rehydrated", Value::Number(t.rehydrated as f64)),
                    ("pruned", Value::Number(t.pruned as f64)),
                    ("candidates", Value::Number(t.candidates as f64)),
                    ("sched_compiles", Value::Number(t.sched_compiles as f64)),
                ]),
            ),
        ])
        .render(),
    )
}
