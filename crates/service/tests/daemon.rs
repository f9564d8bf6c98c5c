//! End-to-end daemon tests: protocol round-trips, warm-cache behavior
//! proven through the metrics op, and graceful-shutdown draining.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pspdg_ir::interp::{Interpreter, NullSink, RtVal, MAX_CALL_DEPTH};
use pspdg_nas::synth;
use pspdg_obs::json::{parse, Value};
use pspdg_parallelizer::Abstraction;
use pspdg_service::proto::{Input, Request};
use pspdg_service::{
    key_hex, Client, ClientError, PlanService, ServiceConfig, Session, MAX_REQUEST_BYTES,
};

const SRC: &str = r#"
int v[64]; int s;
void k() { int i;
#pragma omp parallel for reduction(+: s)
for (i = 0; i < 64; i++) { v[i] = i * 2; s += i; } }
int main() { k(); return s; }
"#;

/// `SRC` reformatted: same parsed module, same content key.
const SRC_REFORMATTED: &str = r#"
int v[64];
int s;
void k() {
    int i;
    #pragma omp parallel for reduction(+: s)
    for (i = 0; i < 64; i++) { v[i] = i * 2; s += i; }
}
int main() { k(); return s; }
"#;

fn start() -> PlanService {
    PlanService::start(ServiceConfig {
        handlers: 2,
        exec_workers: 2,
        ..ServiceConfig::default()
    })
    .expect("bind loopback")
}

/// A multi-function SYNTH module made distinct per `salt` by one extra
/// global, so each salt is its own content key and its own cold build.
fn salted_module(salt: usize, n_funcs: usize) -> String {
    format!("int salt{salt};\n{}", synth::module(n_funcs, 8).source)
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("response missing numeric {key:?}: {v:?}"))
}

fn span_count(metrics: &Value, name: &str) -> f64 {
    metrics
        .get("spans")
        .and_then(Value::as_array)
        .map(|spans| {
            spans
                .iter()
                .filter(|s| s.get("name").and_then(Value::as_str) == Some(name))
                .map(|s| num(s, "count"))
                .sum()
        })
        .unwrap_or(0.0)
}

#[test]
fn end_to_end_cold_then_warm_skips_pdg_rebuild() {
    let service = start();
    let mut client = Client::connect(service.addr()).unwrap();
    client.ping().unwrap();

    // Cold request: a miss that builds the session and records spans.
    let plan = client.plan(SRC, Abstraction::PsPdg).unwrap();
    assert!(num(&plan, "loops") >= 1.0, "the hot loop must be planned");
    let key = plan.get("key").and_then(Value::as_str).unwrap().to_string();

    let cold = client.metrics().unwrap();
    let cold_builds = num(cold.get("cache").unwrap(), "builds");
    let cold_pdg_spans = span_count(&cold, "pspdg/pdg_build");
    assert_eq!(cold_builds, 1.0);
    assert!(
        cold_pdg_spans > 0.0,
        "cold build must record pdg_build spans"
    );

    // Warm requests — including a reformatted source and a different
    // abstraction — must not rebuild the PDG.
    let exec = client
        .execute(SRC_REFORMATTED, Abstraction::PsPdg, Some(2))
        .unwrap();
    assert_eq!(exec.get("key").and_then(Value::as_str), Some(key.as_str()));
    assert_eq!(exec.get("globals_mismatch"), Some(&Value::Null));
    assert_eq!(exec.get("matches_baseline"), Some(&Value::Bool(true)));
    assert_eq!(num(&exec, "ret"), 2016.0); // sum 0..63

    client.plan(SRC, Abstraction::OpenMp).unwrap();
    client.execute(SRC, Abstraction::PsPdg, Some(4)).unwrap();

    let warm = client.metrics().unwrap();
    let cache = warm.get("cache").unwrap();
    assert_eq!(
        num(cache, "builds"),
        1.0,
        "warm requests rebuilt the session"
    );
    assert!(num(cache, "hits") >= 3.0);
    assert_eq!(
        span_count(&warm, "pspdg/pdg_build"),
        cold_pdg_spans,
        "a warm request recorded new pspdg/pdg_build spans"
    );

    service.shutdown();
}

/// The store traffic the benchmark's self-check relies on: one miss and
/// one build, then a hit per repeat that builds nothing and answers alike.
#[test]
fn repeated_plan_request_builds_once_and_hits_after() {
    const N: usize = 5;
    let service = start();
    let mut client = Client::connect(service.addr()).unwrap();
    let (mut payloads, mut pdg_spans) = (Vec::new(), Vec::new());
    for _ in 0..N {
        let mut plan = client.plan(SRC, Abstraction::PsPdg).unwrap();
        if let Value::Obj(members) = &mut plan {
            members.retain(|(k, _)| k != "id");
        }
        payloads.push(plan);
        pdg_spans.push(span_count(&client.metrics().unwrap(), "pspdg/pdg_build"));
    }
    payloads.dedup();
    pdg_spans.dedup();
    assert_eq!(payloads.len(), 1, "payloads differ");
    assert!(pdg_spans.len() == 1 && pdg_spans[0] > 0.0, "{pdg_spans:?}");
    let cache = client.metrics().unwrap().get("cache").unwrap().clone();
    assert_eq!(num(&cache, "hits"), (N - 1) as f64);
    assert_eq!((num(&cache, "misses"), num(&cache, "builds")), (1.0, 1.0));
    service.shutdown();
}

/// The queue-depth answers are two counters: every request that goes
/// through the queue, this `metrics` request included, is one sample.
/// The span totals hold the cold build's pipeline phases.
#[test]
fn metrics_answers_queue_depth_from_counters() {
    let service = start();
    let mut client = Client::connect(service.addr()).unwrap();
    client.plan(SRC, Abstraction::PsPdg).unwrap();
    for _ in 0..3 {
        client.ping().unwrap();
    }
    let metrics = client.metrics().unwrap();
    assert_eq!(num(&metrics, "queue_depth_samples"), 5.0);
    let counters = metrics.get("counters").unwrap();
    assert_eq!(num(counters, "service/queue_depth_samples"), 5.0);
    // One client waits for each answer, so it never finds a queue.
    assert_eq!(num(&metrics, "queue_depth_mean"), 0.0);
    for phase in ["pspdg/pdg_build", "plan/enumerate", "plan/schedule"] {
        assert!(span_count(&metrics, phase) >= 1.0, "{phase}: {metrics:?}");
    }
    service.shutdown();
}

/// An `execute` whose activation falls back counts under its cause in the
/// `metrics` op's counters: a worker's speculative slice divides by zero
/// under a guard the sequential program never takes at that iteration.
#[test]
fn metrics_counters_name_the_fallback_cause() {
    const GUARDED: &str = r#"
        int v[8192]; int best; int q;
        int main() {
            int i;
            for (i = 0; i < 8192; i++) { v[i] = (i * 7) % 13; }
            #pragma omp parallel for
            for (i = 0; i < 8192; i++) {
                #pragma omp critical
                { if (v[i] > best) { best = v[i]; q = 100 / v[i]; } }
            }
            return best + q;
        }
    "#;
    let service = start();
    let mut client = Client::connect(service.addr()).unwrap();
    let exec = client
        .execute(GUARDED, Abstraction::OpenMp, Some(2))
        .unwrap();
    assert_eq!(exec.get("matches_baseline"), Some(&Value::Bool(true)));
    let metrics = client.metrics().unwrap();
    let counters = metrics.get("counters").unwrap();
    assert_eq!(num(counters, "speculation_fault"), 1.0, "{counters:?}");
    service.shutdown();
}

/// A declared `max`/`min` reduction executes as the sequential oracle
/// does under a plan from a graph that has no parallel semantic variables
/// (J&K's `{C}`) as under the PS-PDG's: one chunk's partial extremum must
/// never win by last-writer commit.
#[test]
fn declared_extremum_reductions_answer_the_oracle() {
    const EXTREMA: &str = r#"
        int v[4096]; int m; int n;
        int main() {
            int i;
            for (i = 0; i < 4096; i++) { v[i] = i % 4000; }
            v[5] = 100000;
            v[4090] = -3;
            #pragma omp parallel for reduction(max: m)
            for (i = 0; i < 4096; i++) { m = imax(m, v[i]); }
            #pragma omp parallel for reduction(min: n)
            for (i = 0; i < 4096; i++) { n = imin(n, v[i]); }
            print_i64(n);
            return m;
        }
    "#;
    let p = pspdg_frontend::compile(EXTREMA).unwrap();
    let mut oracle = Interpreter::new(&p.module);
    let Some(RtVal::Int(ret)) = oracle.run_main(&mut NullSink).unwrap() else {
        panic!("main returns an int");
    };
    assert_eq!((ret, oracle.output()), (100000, &["-3".to_string()][..]));
    let service = start();
    let mut client = Client::connect(service.addr()).unwrap();
    for a in [Abstraction::Jk, Abstraction::PsPdg] {
        let exec = client.execute(EXTREMA, a, Some(2)).unwrap();
        assert_eq!(num(&exec, "ret"), ret as f64, "{a}");
        let output = exec.get("output").and_then(Value::as_array).unwrap();
        let output: Vec<&str> = output.iter().filter_map(Value::as_str).collect();
        assert_eq!(output, oracle.output(), "{a}");
        assert_eq!(
            exec.get("matches_baseline"),
            Some(&Value::Bool(true)),
            "{a}"
        );
    }
    service.shutdown();
}

#[test]
fn report_carries_prediction_and_execution() {
    let service = start();
    let mut client = Client::connect(service.addr()).unwrap();
    let report = client.report(SRC, Abstraction::PsPdg, Some(2)).unwrap();
    assert!(num(&report, "predicted_parallelism") > 1.0);
    assert!(num(&report, "sequential_ns") > 0.0);
    assert!(num(&report, "parallel_ns") > 0.0);
    assert!(num(&report, "measured_speedup") > 0.0);
    assert_eq!(report.get("matches_baseline"), Some(&Value::Bool(true)));
    service.shutdown();
}

#[test]
fn errors_come_back_as_responses_not_hangups() {
    let service = start();
    let mut client = Client::connect(service.addr()).unwrap();
    let err = client.plan("int main( {", Abstraction::PsPdg).unwrap_err();
    assert!(
        format!("{err}").contains("compile error"),
        "expected a compile-error response, got: {err}"
    );
    // The connection survives the error.
    client.ping().unwrap();

    // Protocol garbage also gets an error line.
    let mut raw = TcpStream::connect(service.addr()).unwrap();
    raw.write_all(b"this is not json\n").unwrap();
    let mut line = String::new();
    BufReader::new(raw.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains("\"ok\":false"), "got: {line}");

    // So does a program sent as anything but ParC source.
    raw.write_all(b"{\"op\":\"plan\",\"ir\":\"; module m\"}\n")
        .unwrap();
    line.clear();
    BufReader::new(raw).read_line(&mut line).unwrap();
    assert!(
        line.contains("\"ok\":false") && line.contains("needs \\\"source\\\""),
        "got: {line}"
    );

    service.shutdown();
}

/// Arrays past the front-end's cell bound — a global, a local in a called
/// function, and a shape whose dimension product wraps `u64` — and globals
/// past the bound on their sum are compile errors, not an allocation that
/// aborts the daemon, which still answers.
#[test]
fn oversized_arrays_are_refused_and_the_daemon_lives() {
    let service = start();
    let mut client = Client::connect(service.addr()).unwrap();
    let array = "array larger than 1048576 cells";
    let sources = [
        ("int a[4000000000]; int main() { a[3] = 7; return a[3]; }", array),
        ("int f() {\n  int b[4000000000];\n  b[3] = 7; return b[3]; }\nint main() { return f(); }", array),
        ("int a[4294967296][4294967296]; int main() { a[3][3] = 7; return a[3][3]; }", array),
        (
            "int a[1048576], b[1048576], c[1048576], d[1048576], e[1048576];\nint main() { return 0; }",
            "globals larger than 4194304 cells in all",
        ),
    ];
    for (src, want) in sources {
        match client.plan(src, Abstraction::PsPdg) {
            Err(ClientError::Server(msg)) => assert!(msg.contains(want), "{src}: {msg}"),
            other => panic!("{src}: expected a compile error, got {other:?}"),
        }
        client.ping().unwrap();
    }
    service.shutdown();
}

/// Return values JSON cannot carry as a plain number: a non-finite float
/// is sent as the string `print_f64` prints, an `i64` past 2^53 as its
/// exact decimal. Each answer parses, and a NaN return matches its own
/// bit-identical baseline.
#[test]
fn non_finite_and_wide_returns_answer_exact_json() {
    let service = start();
    let mut client = Client::connect(service.addr()).unwrap();
    let cases = [
        ("double main() { return sqrt(-1.0); }", "\"NaN\""),
        ("double main() { return 1.0 / 0.0; }", "\"inf\""),
        ("double main() { return -1.0 / 0.0; }", "\"-inf\""),
        (
            "int main() { return 9007199254740993; }",
            "9007199254740993",
        ),
        (
            "int main() { return 9223372036854775807; }",
            "9223372036854775807",
        ),
    ];
    for (src, ret) in cases {
        for report in [false, true] {
            let (input, abstraction, workers) =
                (Input::Source(src.to_string()), Abstraction::PsPdg, None);
            let request = if report {
                Request::Report {
                    input,
                    abstraction,
                    workers,
                }
            } else {
                Request::Execute {
                    input,
                    abstraction,
                    workers,
                }
            };
            let raw = client.call_raw(request).unwrap();
            let v =
                parse(&raw).unwrap_or_else(|e| panic!("{src}: unparseable answer ({e}): {raw}"));
            assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{src}: {raw}");
            assert!(raw.contains(&format!("\"ret\":{ret},")), "{src}: {raw}");
            assert_eq!(
                v.get("matches_baseline"),
                Some(&Value::Bool(true)),
                "{src}: {raw}"
            );
        }
        client.execute(src, Abstraction::PsPdg, None).unwrap();
    }
    client.ping().unwrap();
    service.shutdown();
}

/// `main` nested `n` levels deep in one of the ways the front-end
/// recurses (the same shapes as the front-end's own nesting test).
fn nested(shape: &str, n: usize) -> String {
    let body = match shape {
        "parens" => format!("return {}1{};", "(".repeat(n), ")".repeat(n)),
        "chain" => format!("return 1{};", " + 1".repeat(n - 1)),
        "blocks" => format!("{}{} return 1;", "{ ".repeat(n), "} ".repeat(n)),
        "ifs" => format!("{} return 1; return 0;", "if (1) ".repeat(n)),
        _ => unreachable!("unknown shape {shape}"),
    };
    format!("int main() {{\n{body}\n}}\n")
}

/// Deep nesting is a compile error, not a handler stack overflow that
/// aborts the daemon: at the front-end's limit `plan` and `execute`
/// answer, one level deeper (or thousands, as a hostile request would) the
/// reply is an error, and the daemon still answers `ping`.
#[test]
fn nesting_past_the_limit_is_refused_and_the_daemon_lives() {
    let service = start();
    let mut client = Client::connect(service.addr()).unwrap();
    let shapes = [
        ("parens", 254, 700),
        ("chain", 255, 10_000),
        ("blocks", 256, 10_000),
        ("ifs", 254, 10_000),
    ];
    for (shape, limit, hostile) in shapes {
        let src = nested(shape, limit);
        client
            .plan(&src, Abstraction::PsPdg)
            .unwrap_or_else(|e| panic!("{shape} at the limit: {e}"));
        let exec = client
            .execute(&src, Abstraction::PsPdg, Some(2))
            .unwrap_or_else(|e| panic!("{shape} at the limit: {e}"));
        assert_eq!(exec.get("matches_baseline"), Some(&Value::Bool(true)));
        for n in [limit + 1, hostile] {
            match client.plan(&nested(shape, n), Abstraction::PsPdg) {
                Err(ClientError::Server(msg)) => assert!(
                    msg.contains("line 2: nesting deeper than 256 levels"),
                    "{shape} {n}: {msg}"
                ),
                other => panic!("{shape} {n}: expected a compile error, got {other:?}"),
            }
            client.ping().unwrap();
        }
    }
    service.shutdown();
}

/// Recursion at the limit runs on every engine a `report` reaches; past it,
/// `plan`, `execute` and `report` each get the call-depth error, not a
/// handler stack overflow that aborts the daemon, which still answers.
#[test]
fn recursion_past_the_call_depth_limit_is_refused_and_the_daemon_lives() {
    let service = start();
    let mut client = Client::connect(service.addr()).unwrap();
    let at_limit = format!(
        "int f(int n) {{ if (n <= 0) {{ return 0; }} return f(n - 1) + 1; }}
         int main() {{ return f({}); }}",
        MAX_CALL_DEPTH - 1
    );
    let report = client
        .report(&at_limit, Abstraction::PsPdg, Some(2))
        .unwrap();
    assert_eq!(report.get("matches_baseline"), Some(&Value::Bool(true)));
    let unbounded = "int f(int n) { if (n < 0) { return 0; } return f(n + 1); }
                     int main() { return f(0); }";
    let replies = [
        client.plan(unbounded, Abstraction::PsPdg),
        client.execute(unbounded, Abstraction::PsPdg, Some(2)),
        client.report(unbounded, Abstraction::PsPdg, Some(2)),
    ];
    for reply in &replies {
        let Err(ClientError::Server(msg)) = reply else {
            panic!("expected a call-depth error, got {reply:?}");
        };
        assert!(
            msg.contains("call depth limit of 200 exceeded in @f"),
            "{msg}"
        );
    }
    client.ping().unwrap();
    service.shutdown();
}

/// A request line past the daemon's bound is refused with an error line
/// and that connection closed — the reader thread buffers no more than the
/// bound — while the daemon keeps serving everyone else.
#[test]
fn oversized_request_line_is_refused_and_the_daemon_lives() {
    let service = start();
    let mut raw = TcpStream::connect(service.addr()).unwrap();
    // Exactly the bound with no newline in sight: the daemon has read all
    // of it when it gives up, so nothing is left in flight to reset on.
    raw.write_all(&vec![b'x'; MAX_REQUEST_BYTES]).unwrap();
    let mut reader = BufReader::new(raw);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"ok\":false") && line.contains("request too large"),
        "got: {line}"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");

    let mut client = Client::connect(service.addr()).unwrap();
    client.ping().unwrap();
    service.shutdown();
}

/// The client-side mirror: a response line past the bound is refused as a
/// bad response instead of buffered whole.
#[test]
fn oversized_response_line_is_refused_by_the_client() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut request = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut request)
            .unwrap();
        let mut line = vec![b'x'; MAX_REQUEST_BYTES + 1];
        line.push(b'\n');
        // The client hangs up mid-line; the write then fails, as it should.
        let _ = (&stream).write_all(&line);
    });
    let mut client = Client::connect(addr).unwrap();
    match client.ping() {
        Err(ClientError::BadResponse(msg)) => assert_eq!(msg, "response too large"),
        other => panic!("expected a refused response, got {other:?}"),
    }
    drop(client);
    server.join().unwrap();
}

#[test]
fn concurrent_clients_get_bit_identical_answers() {
    let service = start();
    const CLIENTS: usize = 6;
    let addr = service.addr();
    let answers: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let src = if i % 2 == 0 { SRC } else { SRC_REFORMATTED };
                    let v = c.execute(src, Abstraction::PsPdg, Some(2)).unwrap();
                    // Everything observable, minus the timing fields.
                    format!(
                        "{:?}|{:?}|{}|{:?}|{:?}",
                        v.get("ret"),
                        v.get("output"),
                        num(&v, "steps"),
                        v.get("globals_mismatch"),
                        v.get("matches_baseline"),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for a in &answers[1..] {
        assert_eq!(a, &answers[0], "concurrent clients diverged");
    }
    // One content key, one build.
    assert_eq!(service.store().stats().builds, 1);
    service.shutdown();
}

/// Concurrent cold builds of distinct programs share the one global pool:
/// every client is answered (no deadlock), and each plan is the one an
/// in-process session makes of the same source.
#[test]
fn concurrent_cold_builds_share_the_pool_and_plan_like_in_process() {
    const CLIENTS: usize = 4;
    let service = start();
    let addr = service.addr();
    let sources: Vec<String> = (0..CLIENTS).map(|i| salted_module(i, 12)).collect();
    let barrier = Barrier::new(CLIENTS);
    let answers: Vec<Value> = std::thread::scope(|s| {
        let handles: Vec<_> = sources
            .iter()
            .map(|src| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    barrier.wait();
                    c.plan(src, Abstraction::PsPdg).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (src, answer) in sources.iter().zip(&answers) {
        let session = Session::compile(src).unwrap();
        let plan = &session.plan(Abstraction::PsPdg).plan;
        let mut techniques: Vec<&str> = plan.loops.values().map(|l| l.technique.name()).collect();
        techniques.sort_unstable();
        let answered: Vec<&str> = answer
            .get("techniques")
            .and_then(Value::as_array)
            .expect("techniques")
            .iter()
            .map(|t| t.as_str().expect("technique name"))
            .collect();
        assert_eq!(
            answer.get("key").and_then(Value::as_str),
            Some(key_hex(session.key()).as_str())
        );
        assert!(!plan.loops.is_empty(), "f0's loops are hot and planned");
        assert_eq!(num(answer, "loops"), plan.loops.len() as f64);
        assert_eq!(answered, techniques);
        assert_eq!(num(answer, "mutexes"), plan.mutexes.len() as f64);
        assert_eq!(
            answer.get("parallel_spawns"),
            Some(&Value::Bool(plan.parallel_spawns))
        );
    }
    assert_eq!(service.store().stats().builds, CLIENTS as u64);
    service.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let service = PlanService::start(ServiceConfig {
        handlers: 1, // serialize handling so requests actually queue up
        exec_workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.addr();

    // Pipeline a burst of requests without reading any responses.
    const BURST: usize = 5;
    let mut stream = TcpStream::connect(addr).unwrap();
    for i in 0..BURST {
        let line = format!(
            "{{\"id\":\"q{i}\",\"op\":\"execute\",\"abstraction\":\"pspdg\",\"source\":{:?}}}\n",
            SRC
        );
        stream.write_all(line.as_bytes()).unwrap();
    }
    stream.flush().unwrap();

    // Wait until the daemon has read all of them (they are now in flight:
    // queued or being handled), then shut down.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut probes = 0usize;
    loop {
        let mut probe = Client::connect(addr).unwrap();
        probes += 1;
        let m = probe.metrics().unwrap();
        // `requests` counts reads; `probes` of them are ours, so the
        // burst is fully read once the difference reaches BURST.
        if num(&m, "requests") >= (BURST + probes) as f64 {
            break;
        }
        assert!(Instant::now() < deadline, "daemon never read the burst");
        std::thread::sleep(Duration::from_millis(10));
    }
    service.shutdown();

    // Every in-flight request was answered before the daemon exited.
    let mut reader = BufReader::new(stream);
    let mut ids = Vec::new();
    for _ in 0..BURST {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "shutdown dropped an in-flight request (got {ids:?})"
        );
        assert!(
            line.contains("\"ok\":true"),
            "drained response failed: {line}"
        );
        let id_at = line.find("\"id\":\"").expect("response id") + 6;
        ids.push(line[id_at..id_at + 2].to_string());
    }
    assert_eq!(ids, (0..BURST).map(|i| format!("q{i}")).collect::<Vec<_>>());
    // Daemon is gone: new connections fail or are not served.
    assert!(Client::connect(addr)
        .and_then(|mut c| { c.ping().map_err(|_| std::io::Error::other("dead")) })
        .is_err());
}

#[test]
fn shutdown_joins_the_reaper_after_the_evictions_it_queued() {
    // Room for one session and its source, not two.
    let budget = Session::compile(SRC).unwrap().approx_bytes() * 3 / 2;
    let service = PlanService::start(ServiceConfig {
        handlers: 1,
        exec_workers: 2,
        budget_bytes: budget,
        ..ServiceConfig::default()
    })
    .unwrap();
    let first = Arc::downgrade(&service.store().get_source(SRC).unwrap());
    let mut client = Client::connect(service.addr()).unwrap();
    for salt in 0..3 {
        let src = format!("int salt{salt};\n{SRC}");
        client.plan(&src, Abstraction::PsPdg).unwrap();
    }
    assert_eq!(service.store().stats().evictions, 3);
    service.shutdown();
    assert!(
        first.upgrade().is_none(),
        "shutdown left an evicted session alive"
    );
}

#[test]
fn client_shutdown_op_stops_a_waiting_daemon() {
    let service = start();
    let addr = service.addr();
    let waiter = std::thread::spawn(move || service.wait());
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    waiter
        .join()
        .expect("wait() returned after client shutdown");
}
