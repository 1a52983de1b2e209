#![warn(missing_docs)]
//! Sweep-as-a-service: the `stream-serve` daemon.
//!
//! A zero-dependency HTTP/1.1 JSON server (on [`std::net::TcpListener`])
//! that answers the questions the paper answers by hand across its Figure
//! 13–15 grids — single experiments, grid sweeps, and constrained
//! design-space queries ("argmin energy/op subject to area ≤ X") — as a
//! long-running service:
//!
//! * **Bounded workers, rate limiting for free** — each connection gets a
//!   thread of its own up to the worker budget; past it the accept thread
//!   serves requests itself and new clients queue in the listen backlog.
//! * **Cross-client dedup** — overlapping grid requests coalesce onto one
//!   computation per `(experiment)` cell ([`Planner`]), so two clients
//!   sweeping overlapping grids compile each shared cell exactly once and
//!   receive byte-identical JSON.
//! * **Persistent caches** — with a cache root, compiled schedules (via
//!   `stream-grid`'s disk tier) and tuning winners (via `stream-tune`'s)
//!   survive restarts; a restarted daemon recomputes its cells without a
//!   single scheduler run or tuner search.
//!
//! # Endpoints
//!
//! | Method | Path | Answer |
//! |---|---|---|
//! | GET | `/health` | `{"ok":true}` |
//! | GET | `/v1/experiments` | known experiment ids |
//! | GET | `/v1/run/<id>?format=json\|text` | one report (text is byte-identical to `repro <id>` stdout) |
//! | GET/POST | `/v1/sweep?experiments=a,b` | several reports, request order |
//! | POST | `/v1/query` | constrained design-space argmin |
//! | GET | `/v1/tune?app=NAME[&clusters=C][&alus_per_cluster=N]` | auto-tuner verdict: tuned vs default and the winning configuration |
//! | GET | `/v1/stats` | planner + kernel-cache + tuner counters |
//! | GET | `/metrics` | Prometheus text exposition (counters, gauges, latency histograms) |
//! | POST | `/v1/shutdown` | stops the daemon |
//!
//! Every response carries an `X-Request-Id` header; the same id annotates
//! (`req=<id>`) every span the request produced, down to grid jobs and
//! scheduler compiles, so one slow sweep is traceable end to end. See
//! `docs/serve_api.md` for the wire schemas and a curl quickstart, and
//! `docs/metrics.md` for the exported metric catalogue.

pub mod http;
pub mod json;
mod planner;
mod server;

pub use planner::{Cell, Planner, PlannerStats};
pub use server::{start, ServerConfig, ServerHandle};

#[cfg(test)]
mod tests {
    use super::http::{Request, Response};
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use stream_grid::Engine;
    use stream_repro::{run_with, ExperimentId, Metric, SpaceQuery};

    fn get(path: &str) -> Request {
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (path.to_string(), String::new()),
        };
        Request {
            method: "GET".to_string(),
            path,
            query,
            body: String::new(),
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            query: String::new(),
            body: body.to_string(),
        }
    }

    fn planner() -> Planner {
        Planner::new(Engine::new(2))
    }

    fn route(req: &Request, p: &Planner) -> Response {
        super::server::route(req, p)
    }

    #[test]
    fn health_and_experiments() {
        let p = planner();
        assert_eq!(route(&get("/health"), &p).body, "{\"ok\":true}");
        let body = route(&get("/v1/experiments"), &p).body;
        assert!(
            body.contains("\"fig13\"") && body.contains("\"verify\""),
            "{body}"
        );
    }

    #[test]
    fn run_text_is_byte_identical_to_the_cli_rendering() {
        let p = planner();
        let resp = route(&get("/v1/run/table1?format=text"), &p);
        assert_eq!(resp.status, 200);
        let direct = run_with(ExperimentId::Table1, &Engine::new(1));
        assert_eq!(resp.body, format!("{direct}\n"));
    }

    #[test]
    fn run_json_is_the_report_schema() {
        let p = planner();
        let resp = route(&get("/v1/run/table4"), &p);
        assert_eq!(resp.status, 200);
        let parsed = json::parse(&resp.body).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("stream-scaling.report.v1")
        );
        assert_eq!(parsed.get("id").and_then(|v| v.as_str()), Some("table4"));
    }

    #[test]
    fn unknown_experiment_is_a_404_with_a_suggestion() {
        let p = planner();
        let resp = route(&get("/v1/run/tabel4"), &p);
        assert_eq!(resp.status, 404);
        let parsed = json::parse(&resp.body).unwrap();
        assert_eq!(
            parsed.get("suggestion").and_then(|v| v.as_str()),
            Some("table4")
        );
    }

    #[test]
    fn sweep_get_and_post_agree_and_dedup() {
        let p = planner();
        let a = route(&get("/v1/sweep?experiments=table1,table4"), &p);
        let b = route(
            &post("/v1/sweep", "{\"experiments\":[\"table1\",\"table4\"]}"),
            &p,
        );
        assert_eq!(a.status, 200);
        assert_eq!(a.body, b.body);
        // Two sweeps over the same cells: each cell computed exactly once.
        assert_eq!(p.stats().computed, 2);
        assert_eq!(p.stats().lookups, 4);
    }

    #[test]
    fn concurrent_overlapping_sweeps_share_cells_and_bytes() {
        let p = planner();
        let (first, second) = std::thread::scope(|s| {
            let h1 = s.spawn(|| route(&get("/v1/sweep?experiments=table1,table4"), &p));
            let h2 = s.spawn(|| route(&get("/v1/sweep?experiments=table4,table3"), &p));
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert_eq!(first.status, 200);
        assert_eq!(second.status, 200);
        // The shared cell (table4) renders identically in both responses...
        let shared = |body: &str| {
            let parsed = json::parse(body).unwrap();
            parsed
                .get("reports")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|r| r.render())
                .find(|r| r.contains("\"id\":\"table4\""))
                .unwrap()
        };
        assert_eq!(shared(&first.body), shared(&second.body));
        // ...and was computed exactly once: 3 distinct cells, 4 lookups.
        assert_eq!(p.stats().computed, 3);
        assert_eq!(p.stats().lookups, 4);
    }

    #[test]
    fn query_endpoint_matches_the_library_solver() {
        let p = planner();
        let body = "{\"minimize\":\"energy_per_op\",\
                     \"constraints\":[{\"metric\":\"area_per_alu\",\"max\":1e9}],\
                     \"clusters\":[8,16,32],\"alus_per_cluster\":[2,5]}";
        let resp = route(&post("/v1/query", body), &p);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let expected = SpaceQuery::minimize(Metric::EnergyPerOp)
            .subject_to(Metric::AreaPerAlu, 1e9)
            .clusters([8, 16, 32])
            .alus_per_cluster([2, 5])
            .solve()
            .unwrap();
        let parsed = json::parse(&resp.body).unwrap();
        let shape = parsed.get("shape").unwrap();
        assert_eq!(
            shape.get("clusters").and_then(|v| v.as_f64()),
            Some(f64::from(expected.shape.clusters))
        );
        assert_eq!(
            shape.get("alus_per_cluster").and_then(|v| v.as_f64()),
            Some(f64::from(expected.shape.alus_per_cluster))
        );
        assert_eq!(
            parsed.get("value").and_then(|v| v.as_f64()).unwrap(),
            expected.value
        );

        // Infeasible constraints are a clean 422.
        let resp = route(
            &post(
                "/v1/query",
                "{\"minimize\":\"energy_per_op\",\
                  \"constraints\":[{\"metric\":\"area_per_alu\",\"max\":0}]}",
            ),
            &p,
        );
        assert_eq!(resp.status, 422);
    }

    #[test]
    fn tune_endpoint_answers_and_memoizes() {
        let p = planner();
        let resp = route(&get("/v1/tune?app=conv"), &p);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let parsed = json::parse(&resp.body).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("stream-scaling.tune.v1")
        );
        assert_eq!(parsed.get("app").and_then(|v| v.as_str()), Some("CONV"));
        let shape = parsed.get("shape").unwrap();
        assert_eq!(shape.get("clusters").and_then(|v| v.as_f64()), Some(8.0));
        assert_eq!(
            shape.get("alus_per_cluster").and_then(|v| v.as_f64()),
            Some(5.0)
        );
        // Default evaluated first: tuned can never lose.
        let speedup = parsed.get("speedup").and_then(|v| v.as_f64()).unwrap();
        assert!(speedup >= 1.0, "{speedup}");
        assert!(parsed.get("winner").unwrap().get("describe").is_some());
        // A repeat query is a memo read: byte-identical, no new search.
        let again = route(&get("/v1/tune?app=CONV"), &p);
        assert_eq!(again.body, resp.body);
    }

    #[test]
    fn tune_endpoint_rejects_bad_inputs() {
        let p = planner();
        assert_eq!(route(&get("/v1/tune"), &p).status, 400);
        let resp = route(&get("/v1/tune?app=nosuch"), &p);
        assert_eq!(resp.status, 404);
        assert!(resp.body.contains("CONV"), "{}", resp.body);
        assert_eq!(route(&get("/v1/tune?app=conv&clusters=0"), &p).status, 400);
        assert_eq!(
            route(&get("/v1/tune?app=conv&alus_per_cluster=1000"), &p).status,
            400
        );
        assert_eq!(route(&post("/v1/tune", ""), &p).status, 404);
    }

    #[test]
    fn metrics_endpoint_renders_valid_exposition() {
        let p = planner();
        // Serve one report first so real series have data behind them.
        assert_eq!(route(&get("/v1/run/table1"), &p).status, 200);
        let resp = route(&get("/metrics"), &p);
        assert_eq!(resp.status, 200);
        assert!(resp.content_type.starts_with("text/plain; version=0.0.4"));
        // The always-on families are present regardless of the tracing
        // flag: consolidated cache counters, tuner counters, serve gauges.
        for series in [
            "# TYPE cache_compiles counter",
            "# TYPE cache_factor_compiles counter",
            "# TYPE tune_searches counter",
            "# TYPE serve_planner_cells gauge",
            "# TYPE pool_permits_capacity gauge",
            "# TYPE cache_entries gauge",
        ] {
            assert!(resp.body.contains(series), "missing {series:?}");
        }
        // Gauges are global and other tests may re-sample them
        // concurrently, so assert residency through the planner API and
        // only series presence in the exposition.
        assert_eq!(p.cells_resident(), 1);
        assert!(resp.body.contains("serve_planner_computed "));
        assert!(resp.body.contains("serve_planner_cells "));
    }

    #[test]
    fn malformed_requests_are_4xx_never_panics() {
        let p = planner();
        assert_eq!(route(&post("/v1/query", "{not json"), &p).status, 400);
        assert_eq!(route(&post("/v1/query", "{}"), &p).status, 400);
        assert_eq!(
            route(&post("/v1/query", "{\"minimize\":\"joules\"}"), &p).status,
            400
        );
        assert_eq!(route(&get("/v1/sweep"), &p).status, 400);
        assert_eq!(route(&get("/v1/sweep?experiments="), &p).status, 404);
        assert_eq!(route(&get("/nope"), &p).status, 404);
        assert_eq!(route(&post("/v1/experiments", ""), &p).status, 404);
        assert_eq!(route(&get("/v1/run/table1?format=xml"), &p).status, 400);
    }

    /// Full socket-level smoke: start, serve two concurrent clients, check
    /// stats, shut down via the endpoint.
    #[test]
    fn daemon_end_to_end_over_real_sockets() {
        let handle = start(&ServerConfig {
            addr: None,
            workers: Some(2),
            cache_root: None,
        })
        .unwrap();
        let addr = handle.addr();

        let fetch = move |request: String| -> String {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(request.as_bytes()).unwrap();
            let mut wire = String::new();
            conn.read_to_string(&mut wire).unwrap();
            wire
        };
        let get_req =
            |path: &str| format!("GET {path} HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n");

        let (a, b) = std::thread::scope(|s| {
            let h1 = s.spawn(|| fetch(get_req("/v1/sweep?experiments=table1,table4")));
            let h2 = s.spawn(|| fetch(get_req("/v1/sweep?experiments=table4,table1")));
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert!(a.starts_with("HTTP/1.1 200"), "{a}");
        assert!(b.starts_with("HTTP/1.1 200"), "{b}");
        let body = |wire: &str| wire.split("\r\n\r\n").nth(1).unwrap().to_string();
        // Same cells, opposite order: same reports, per-request order.
        let (body_a, body_b) = (body(&a), body(&b));
        assert_ne!(body_a, body_b);
        let a_parsed = json::parse(&body_a).unwrap();
        let b_parsed = json::parse(&body_b).unwrap();
        let renders = |v: &json::Value| -> Vec<String> {
            let mut r: Vec<String> = v
                .get("reports")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|x| x.render())
                .collect();
            r.sort();
            r
        };
        assert_eq!(renders(&a_parsed), renders(&b_parsed));

        assert_eq!(handle.planner().stats().computed, 2);

        let wire = fetch(get_req("/v1/stats"));
        assert!(wire.contains("\"planner\""), "{wire}");
        assert!(wire.contains("\"factor_compiles\""), "{wire}");
        // Every response is correlated with a unique request id.
        assert!(wire.contains("x-request-id: "), "{wire}");
        let ids: Vec<&str> = [&a, &b]
            .iter()
            .map(|w| {
                w.lines()
                    .find_map(|l| l.strip_prefix("x-request-id: "))
                    .expect("request id header present")
            })
            .collect();
        assert_ne!(ids[0], ids[1], "concurrent requests got distinct ids");

        let metrics = fetch(get_req("/metrics"));
        assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
        assert!(metrics.contains("serve_requests "), "{metrics}");
        assert!(metrics.contains("serve_latency_sweep_count"), "{metrics}");

        let shutdown =
            fetch("POST /v1/shutdown HTTP/1.1\r\nhost: x\r\ncontent-length: 0\r\n\r\n".to_string());
        assert!(shutdown.starts_with("HTTP/1.1 200"), "{shutdown}");
        handle.join();
    }

    /// RENDER's default strips overflow the SRF of a C=8, N=2 machine: the
    /// tuner has no baseline there, which is a 422 (memoized like any
    /// verdict), and the daemon keeps serving.
    #[test]
    fn untunable_point_is_a_422_and_the_daemon_survives() {
        let handle = start(&ServerConfig {
            addr: None,
            workers: Some(1),
            cache_root: None,
        })
        .unwrap();
        let addr = handle.addr();
        let fetch = |request: &str| -> String {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(request.as_bytes()).unwrap();
            let mut wire = String::new();
            conn.read_to_string(&mut wire).unwrap();
            wire
        };
        let get_req =
            |path: &str| format!("GET {path} HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n");
        let body = |wire: &str| wire.split("\r\n\r\n").nth(1).unwrap().to_string();

        let tune = get_req("/v1/tune?app=render&clusters=8&alus_per_cluster=2");
        let first = fetch(&tune);
        assert!(first.starts_with("HTTP/1.1 422"), "{first}");
        let error = json::parse(&body(&first)).unwrap();
        let message = error.get("error").and_then(|v| v.as_str()).unwrap();
        assert!(message.contains("srf overflow"), "{message}");
        assert_eq!(body(&fetch(&tune)), body(&first));

        let health = fetch(&get_req("/health"));
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        let shutdown = fetch("POST /v1/shutdown HTTP/1.1\r\nhost: x\r\ncontent-length: 0\r\n\r\n");
        assert!(shutdown.starts_with("HTTP/1.1 200"), "{shutdown}");
        handle.join();
    }
}
