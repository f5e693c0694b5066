//! The open-loop workloads: jobs arrive on a seeded schedule whether or
//! not earlier ones have finished, as they would from independent users.
//!
//! * `service-open` — an in-process `AlignService` configured exactly as
//!   `megasw serve --env1` configures it, fed mostly 1–3 kbp single-pair
//!   jobs at high priority, periodic 16-pair batch jobs and an occasional
//!   ~250 kbp × 8 kbp job at low priority. Exercises the queue and the
//!   executor: every job carries a cancel token, so single pairs take the
//!   segmented route, and small jobs wait behind a running long job.
//! * `http-open` — the small-job and batch stream at a lower rate, sent as
//!   `POST /jobs` over loopback to `MetricsServer::bind_routed` with the
//!   service's handler, half of the bodies as FASTA text; completion is
//!   observed with `GET /jobs/ID`. Exercises the network surface.
//!
//! Both use one sender thread and one observer thread. Each job is timed
//! from its *scheduled* send time to the moment the observer sees it
//! finished, so a stalled sender or listener is charged to every job
//! behind it.

use crate::inputs::{Gen, Pair};
use crate::schedule::{self, Arrival, JobClass, Mix};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{setup_repeated, Measured};
use megasw_gpusim::Platform;
use megasw_multigpu::{AlignService, BatchJob, JobSpec, JobState, RunConfig, ServiceConfig};
use megasw_obs::json::{self, escape, Value};
use megasw_obs::{http_get, http_post, MetricsHub, MetricsServer};
use megasw_sw::{kernel, BestCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SMALL_POOL: usize = 48;
const BATCH_POOL: usize = 5;
const BATCH_PAIRS: usize = 16;

/// About 30% executor utilisation on a 2-core AVX2 host. The long job
/// comes once every 10 s, so a 20 s run always holds two: every small job
/// that arrives while one runs waits for all of it, and at one every 4 s
/// those waits were ~18% of the jobs — enough to push the median into the
/// queue-drain region, where it swung with the host's speed.
const SERVICE_MIX: Mix = Mix {
    small_per_s: 150.0,
    small_items: SMALL_POOL,
    batch_every: Duration::from_millis(500),
    batch_items: BATCH_POOL,
    long_every: Some(Duration::from_secs(10)),
    long_items: 1,
};

/// Low enough that one sender keeps its schedule through the listener.
const HTTP_MIX: Mix = Mix {
    small_per_s: 10.0,
    small_items: SMALL_POOL,
    batch_every: Duration::from_secs(4),
    batch_items: BATCH_POOL,
    long_every: None,
    long_items: 0,
};

/// How often the observer looks for finished jobs. Polling the in-process
/// service faster made its latencies noisier, not lower: the observer then
/// contends with the executor for the service's lock and the two cores.
const POLL_EVERY: Duration = Duration::from_millis(1);

/// Jobs still unfinished this long after the last send count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// A run whose sender fell further behind its schedule than this did not
/// offer the load it claims, and is marked invalid.
const MAX_LATE: Duration = Duration::from_millis(500);

struct Pools {
    small: Vec<Pair>,
    batches: Vec<Vec<Pair>>,
    long: Vec<Pair>,
}

impl Pools {
    fn generate(
        seed: u64,
        tag: u64,
        with_long: bool,
        tracer: &Tracer,
    ) -> (Pools, crate::inputs::KernelProbe) {
        let mut g = Gen::new(seed, tag, tracer);
        let small = g.search_pairs("s", SMALL_POOL, 1_000..=3_000, 2);
        let batches = (0..BATCH_POOL)
            .map(|b| g.search_pairs(&format!("b{b}p"), BATCH_PAIRS, 1_000..=3_000, 2))
            .collect();
        let long = if with_long {
            vec![g.window_pair("long0".into(), 250_000, 8_000)]
        } else {
            Vec::new()
        };
        (
            Pools {
                small,
                batches,
                long,
            },
            g.probe,
        )
    }

    fn pairs(&self, a: &Arrival) -> &[Pair] {
        match a.class {
            JobClass::Small => std::slice::from_ref(&self.small[a.item]),
            JobClass::Batch => &self.batches[a.item],
            JobClass::Long => std::slice::from_ref(&self.long[a.item]),
        }
    }

    fn spec(&self, a: &Arrival) -> JobSpec {
        let pairs = self.pairs(a);
        match a.class {
            JobClass::Batch => JobSpec::batch(
                pairs
                    .iter()
                    .map(|p| BatchJob::new(p.id.clone(), p.a.clone(), p.b.clone()))
                    .collect(),
            ),
            _ => JobSpec::single(pairs[0].id.clone(), pairs[0].a.clone(), pairs[0].b.clone()),
        }
    }
}

/// `megasw serve --env1` with no policy flags.
fn start_service() -> AlignService {
    AlignService::start(
        Platform::env1(),
        ServiceConfig::new(RunConfig::paper_default()),
        MetricsHub::new(),
    )
}

/// A finished job as the client sees it.
struct Finished {
    ok: bool,
    /// Service-side submission → completion (`JobStatus.latency`).
    service_ms: f64,
    /// Execution wall time (`JobReport.wall_time`).
    exec_ms: f64,
    cells: u128,
    bests: Vec<BestCell>,
    error: Option<String>,
}

/// The two ways a client reaches the service.
trait Client: Sync {
    /// Span name of the submission call.
    const SEND: &'static str;
    /// Submit; returns the job id, or why the submission was refused.
    fn send(&self, a: &Arrival) -> Result<u64, String>;
    /// Terminal jobs among `pending`, with what the client learned.
    fn finished(
        &self,
        pending: &[(u64, u64)],
        tracer: &Tracer,
    ) -> Vec<(u64, Result<Finished, String>)>;
}

struct InProcess<'s> {
    svc: &'s AlignService,
    pools: &'s Pools,
    /// Prefix of `completed_order` already seen.
    seen: Mutex<usize>,
}

impl Client for InProcess<'_> {
    const SEND: &'static str = "service.submit";

    fn send(&self, a: &Arrival) -> Result<u64, String> {
        Ok(self
            .svc
            .submit_with_priority(self.pools.spec(a), a.class.priority()))
    }

    fn finished(
        &self,
        _pending: &[(u64, u64)],
        _tracer: &Tracer,
    ) -> Vec<(u64, Result<Finished, String>)> {
        let done = self.svc.completed_order();
        let mut seen = self.seen.lock().expect("observer lock");
        let new = done[*seen..]
            .iter()
            .filter_map(|&id| {
                let s = self.svc.status(id)?;
                let (exec_ms, cells, bests) = s.report.as_ref().map_or((0.0, 0, Vec::new()), |r| {
                    let bests = r.outcomes.iter().map(|o| o.best).collect();
                    (r.wall_time.as_secs_f64() * 1e3, r.total_cells, bests)
                });
                Some((
                    id,
                    Ok(Finished {
                        ok: s.state == JobState::Done,
                        service_ms: s.latency.unwrap_or_default().as_secs_f64() * 1e3,
                        exec_ms,
                        cells,
                        bests,
                        error: s
                            .error
                            .or_else(|| (s.state != JobState::Done).then(|| s.state.name().into())),
                    }),
                ))
            })
            .collect();
        *seen = done.len();
        new
    }
}

struct OverHttp {
    addr: String,
    /// Request bodies per pool item: `[raw bases, FASTA]`.
    small: Vec<[String; 2]>,
    batches: Vec<[String; 2]>,
}

impl OverHttp {
    fn new(addr: String, pools: &Pools) -> OverHttp {
        let single = |p: &Pair, fasta: bool| {
            format!(
                "{{\"kind\": \"single-pair\", \"id\": \"{}\", \"a\": \"{}\", \"b\": \"{}\", \"priority\": {}}}",
                p.id,
                seq_text(&p.a, &format!("{}a", p.id), fasta),
                seq_text(&p.b, &format!("{}b", p.id), fasta),
                JobClass::Small.priority()
            )
        };
        let batch = |ps: &[Pair], fasta: bool| {
            let pairs: Vec<String> = ps
                .iter()
                .map(|p| {
                    format!(
                        "{{\"id\": \"{}\", \"a\": \"{}\", \"b\": \"{}\"}}",
                        p.id,
                        seq_text(&p.a, &format!("{}a", p.id), fasta),
                        seq_text(&p.b, &format!("{}b", p.id), fasta)
                    )
                })
                .collect();
            format!(
                "{{\"kind\": \"batch\", \"pairs\": [{}], \"priority\": {}}}",
                pairs.join(", "),
                JobClass::Batch.priority()
            )
        };
        OverHttp {
            addr,
            small: pools
                .small
                .iter()
                .map(|p| [single(p, false), single(p, true)])
                .collect(),
            batches: pools
                .batches
                .iter()
                .map(|b| [batch(b, false), batch(b, true)])
                .collect(),
        }
    }
}

/// A sequence as a JSON string value: raw bases, or a FASTA record with
/// 60-column lines.
fn seq_text(codes: &[u8], id: &str, fasta: bool) -> String {
    let bases: String = codes.iter().map(|&c| megasw_sw::ascii_base(c)).collect();
    if !fasta {
        return bases;
    }
    let mut text = format!(">{id} perfbench\n");
    for line in bases.as_bytes().chunks(60) {
        text.push_str(std::str::from_utf8(line).expect("bases are ASCII"));
        text.push('\n');
    }
    escape(&text)
}

fn status_code(head: &str) -> u32 {
    head.split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0)
}

impl Client for OverHttp {
    const SEND: &'static str = "http.post";

    fn send(&self, a: &Arrival) -> Result<u64, String> {
        let bodies = match a.class {
            JobClass::Small => &self.small[a.item],
            _ => &self.batches[a.item],
        };
        let (head, body) = http_post(&self.addr, "/jobs", &bodies[usize::from(a.fasta)])
            .map_err(|e| format!("POST /jobs: {e}"))?;
        if status_code(&head) != 202 {
            return Err(format!("POST /jobs answered `{head}`"));
        }
        json::parse(&body)
            .ok()
            .and_then(|v| v.get("job").and_then(Value::as_f64))
            .map(|id| id as u64)
            .ok_or_else(|| format!("POST /jobs answered without a job id: {body}"))
    }

    fn finished(
        &self,
        pending: &[(u64, u64)],
        tracer: &Tracer,
    ) -> Vec<(u64, Result<Finished, String>)> {
        let mut out = Vec::new();
        for &(op, id) in pending {
            let start = Instant::now();
            let got = http_get(&self.addr, &format!("/jobs/{id}"));
            tracer.record("http.poll", Some("op"), op, start, Instant::now());
            let (head, body) = match got {
                Ok(r) => r,
                Err(e) => {
                    out.push((id, Err(format!("GET /jobs/{id}: {e}"))));
                    continue;
                }
            };
            if status_code(&head) != 200 {
                out.push((id, Err(format!("GET /jobs/{id} answered `{head}`"))));
                continue;
            }
            let Ok(v) = json::parse(&body) else {
                out.push((id, Err(format!("GET /jobs/{id}: unparseable body"))));
                continue;
            };
            let state = v.get("state").and_then(Value::as_str).unwrap_or("");
            if matches!(state, "queued" | "running") {
                continue;
            }
            let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            let report = v.get("report");
            let bests = report
                .and_then(|r| r.get("outcomes"))
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .map(|o| BestCell {
                    score: num(o, "score") as i32,
                    i: num(o, "i") as usize,
                    j: num(o, "j") as usize,
                })
                .collect();
            out.push((
                id,
                Ok(Finished {
                    ok: state == "done",
                    service_ms: num(&v, "latency_ms"),
                    exec_ms: report.map_or(0.0, |r| num(r, "wall_ms")),
                    cells: report.map_or(0.0, |r| num(r, "total_cells")) as u128,
                    bests,
                    error: v
                        .get("error")
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .or_else(|| (state != "done").then(|| state.to_string())),
                }),
            ));
        }
        out
    }
}

pub fn service_open(seed: u64, seconds: u64, tracer: &Tracer) -> Result<Measured, String> {
    let ((pools, svc), mut m) = setup_repeated(|| {
        let (pools, probe) = Pools::generate(seed, 3, true, tracer);
        let svc = start_service();
        warm_up(&svc, &pools);
        ((pools, svc), probe)
    });
    m.devices = Platform::env1().len();
    let schedule = schedule::open_loop(seed, Duration::from_secs(seconds), &SERVICE_MIX);
    let client = InProcess {
        svc: &svc,
        pools: &pools,
        seen: Mutex::new(svc.completed_order().len()),
    };
    let run = drive(&client, &pools, &schedule, tracer, &mut m);
    m.layer = run.layer_metrics(&svc, m.wall_s);
    m.layer.push((
        "service.submit_us",
        median(&tracer.durations_ms(InProcess::SEND)) * 1e3,
    ));
    Ok(m)
}

pub fn http_open(seed: u64, seconds: u64, tracer: &Tracer) -> Result<Measured, String> {
    let ((pools, svc, server), mut m) = setup_repeated(|| {
        let (pools, probe) = Pools::generate(seed, 4, false, tracer);
        let svc = start_service();
        let server = MetricsServer::bind_routed("127.0.0.1:0", svc.hub(), Some(svc.handler()))
            .expect("bind a loopback port");
        warm_up(&svc, &pools);
        let (head, _) = http_get(&server.local_addr().to_string(), "/health").expect("GET /health");
        assert_eq!(status_code(&head), 200, "GET /health answered `{head}`");
        ((pools, svc, server), probe)
    });
    m.devices = Platform::env1().len();
    let schedule = schedule::open_loop(seed, Duration::from_secs(seconds), &HTTP_MIX);
    let client = OverHttp::new(server.local_addr().to_string(), &pools);
    let run = drive(&client, &pools, &schedule, tracer, &mut m);
    m.layer = run.layer_metrics(&svc, m.wall_s);
    m.layer.extend([
        ("http.post_ms", median(&tracer.durations_ms(OverHttp::SEND))),
        ("http.poll_ms", median(&tracer.durations_ms("http.poll"))),
        ("http.overhead_ms", median(&run.detect_ms)),
        ("http.refused", m.tally.refused as f64),
    ]);
    server.shutdown();
    drop(svc);
    Ok(m)
}

/// One small job end to end, so threads are up and lazy set-up is done
/// before the measured window.
fn warm_up(svc: &AlignService, pools: &Pools) {
    let p = &pools.small[0];
    let id = svc.submit(JobSpec::single("warm-up", p.a.clone(), p.b.clone()));
    svc.wait(id, Duration::from_secs(30));
}

/// What the open loop observed beyond the end-to-end figures.
#[derive(Default)]
struct OpenRun {
    late_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    detect_ms: Vec<f64>,
    long_cells: u128,
    long_exec_s: f64,
    simd_rescues: u64,
}

impl OpenRun {
    fn layer_metrics(&self, svc: &AlignService, wall_s: f64) -> Vec<(&'static str, f64)> {
        let queue_peak = svc
            .hub()
            .registry()
            .counter("service.queue_peak")
            .unwrap_or(0);
        let long_gcups = if self.long_exec_s > 0.0 {
            self.long_cells as f64 / self.long_exec_s / 1e9
        } else {
            0.0
        };
        vec![
            ("kernel.simd_rescues", self.simd_rescues as f64),
            ("service.queue_ms", median(&self.queue_ms)),
            (
                "service.queue_tail_ms",
                tail(&self.queue_ms).map_or(0.0, |t| t.value),
            ),
            ("service.exec_ms", median(&self.exec_ms)),
            ("service.detect_ms", median(&self.detect_ms)),
            ("service.queue_peak", queue_peak as f64),
            ("service.long_job_gcups", long_gcups),
            (
                "service.busy_frac",
                self.exec_ms.iter().sum::<f64>() / 1e3 / wall_s,
            ),
            ("gen.late_ms", median(&self.late_ms)),
            (
                "gen.late_max_ms",
                self.late_ms.iter().copied().fold(0.0, f64::max),
            ),
            ("gen.sent", self.late_ms.len() as f64),
        ]
    }
}

struct Pending {
    op: u64,
    id: u64,
    arrival: Arrival,
    due: Instant,
    sent: Instant,
}

/// Send `schedule` from one thread and observe completions from another.
fn drive<C: Client>(
    client: &C,
    pools: &Pools,
    schedule: &[Arrival],
    tracer: &Tracer,
    m: &mut Measured,
) -> OpenRun {
    let pending: Mutex<Vec<Pending>> = Mutex::new(Vec::new());
    let sending = AtomicBool::new(true);
    let mut run = OpenRun::default();
    let rescues = kernel::simd_rescues();
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut last_done = t0;

    let (late_ms, refused) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut late_ms = Vec::with_capacity(schedule.len());
            let mut refused = Vec::new();
            for (op, a) in schedule.iter().enumerate() {
                let op = op as u64;
                let due = t0 + a.due;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let start = Instant::now();
                let sent = client.send(a);
                let end = Instant::now();
                late_ms.push((start - due).as_secs_f64() * 1e3);
                tracer.record("gen.late", Some("op"), op, due, start);
                tracer.record(C::SEND, Some("op"), op, start, end);
                match sent {
                    Ok(id) => pending.lock().expect("pending lock").push(Pending {
                        op,
                        id,
                        arrival: *a,
                        due,
                        sent: end,
                    }),
                    Err(e) => refused.push(format!("op {op}: {e}")),
                }
            }
            sending.store(false, Ordering::SeqCst);
            (late_ms, refused)
        });

        let mut drain_deadline = None;
        loop {
            let still_sending = sending.load(Ordering::SeqCst);
            let snapshot: Vec<(u64, u64)> = pending
                .lock()
                .expect("pending lock")
                .iter()
                .map(|p| (p.op, p.id))
                .collect();
            if !still_sending && snapshot.is_empty() {
                break;
            }
            let observed = client.finished(&snapshot, tracer);
            let now = Instant::now();
            for (id, result) in observed {
                let taken = {
                    let mut list = pending.lock().expect("pending lock");
                    list.iter()
                        .position(|p| p.id == id)
                        .map(|k| list.swap_remove(k))
                };
                // Jobs not in the list are not part of the schedule (the
                // warm-up job).
                if let Some(p) = taken {
                    last_done = last_done.max(now);
                    settle(&p, result, now, pools, tracer, m, &mut run);
                }
            }
            if !still_sending {
                let deadline = *drain_deadline.get_or_insert(now + DRAIN_LIMIT);
                if now > deadline {
                    for p in pending.lock().expect("pending lock").drain(..) {
                        m.tally.failed += 1;
                        m.note_problem(format!(
                            "op {}: job {} unfinished at the drain limit",
                            p.op, p.id
                        ));
                    }
                    break;
                }
            }
            std::thread::sleep(POLL_EVERY);
        }
        sender.join().expect("sender thread")
    });

    for e in refused {
        m.tally.refused += 1;
        m.note_problem(e);
    }
    let worst = late_ms.iter().copied().fold(0.0, f64::max);
    if worst > MAX_LATE.as_secs_f64() * 1e3 {
        m.invalid = Some(format!(
            "the sender fell {worst:.1} ms behind its schedule (bound {} ms)",
            MAX_LATE.as_millis()
        ));
    }
    run.late_ms = late_ms;
    run.simd_rescues = kernel::simd_rescues() - rescues;
    m.wall_s = (last_done - t0).as_secs_f64();
    run
}

/// Check one finished job against its references and account for it.
fn settle(
    p: &Pending,
    result: Result<Finished, String>,
    now: Instant,
    pools: &Pools,
    tracer: &Tracer,
    m: &mut Measured,
    run: &mut OpenRun,
) {
    let f = match result {
        Ok(f) => f,
        Err(e) => {
            m.tally.refused += 1;
            m.note_problem(format!("op {}: {e}", p.op));
            return;
        }
    };
    if !f.ok {
        m.tally.failed += 1;
        m.note_problem(format!(
            "op {}: job {} {}",
            p.op,
            p.id,
            f.error.unwrap_or_default()
        ));
        return;
    }
    let want: Vec<BestCell> = pools.pairs(&p.arrival).iter().map(|x| x.best).collect();
    if f.bests != want {
        m.tally.wrong += 1;
        m.note_problem(format!(
            "op {}: job {} scores differ from the reference",
            p.op, p.id
        ));
        return;
    }
    m.tally.ok += 1;
    m.cells += f.cells;
    let client_ms = (now - p.due).as_secs_f64() * 1e3;
    let queue_ms = (f.service_ms - f.exec_ms).max(0.0);
    m.latencies.push((p.op, client_ms));
    run.queue_ms.push(queue_ms);
    run.exec_ms.push(f.exec_ms);
    run.detect_ms.push(client_ms - f.service_ms);
    if p.arrival.class == JobClass::Long {
        run.long_cells += f.cells;
        run.long_exec_s += f.exec_ms / 1e3;
    }
    // The service's phases are not visible from outside; these spans are
    // placed from its report, starting where the submission returned.
    let ms = |x: f64| Duration::from_secs_f64(x / 1e3);
    let exec_start = p.sent + ms(queue_ms);
    tracer.record("op", None, p.op, p.due, now);
    tracer.record("service.queue", Some("op"), p.op, p.sent, exec_start);
    tracer.record(
        "service.exec",
        Some("op"),
        p.op,
        exec_start,
        exec_start + ms(f.exec_ms),
    );
}
