//! The resident alignment service: a long-lived engine that owns the
//! device platform and drains a prioritized queue of [`JobSpec`]s.
//!
//! Every prior layer lives and dies with one CLI invocation. This module
//! is ROADMAP item 2's answer — the shape FutureSDR's runtime/ctrl-port
//! split suggests: a resident runtime that accepts work, streams
//! progress, and exposes remote control, keeping the batch packer and
//! calibrated device weights hot under a continuous job stream instead
//! of paying startup per invocation.
//!
//! Architecture (DESIGN.md §15):
//!
//! * [`AlignService`] owns the platform. Its executor is a set of
//!   scheduling rules applied under the state lock by whichever thread
//!   changed the state — a submitter, or a job's runner as the job ends —
//!   so starting a job wakes no other thread. Each job runs on a runner
//!   thread of its own. One job is *active* at a time — the platform is
//!   one set of devices; running two slab pipelines at once would just
//!   timeslice them — popped in priority order (higher first), FIFO
//!   within a priority.
//! * **Preemption parks in place.** When a queued job's priority is
//!   strictly higher than the active job's, the executor parks the active
//!   job through its [`RunControl`] and starts the queued one at once,
//!   without waiting: the parked job's workers stop at their next poll
//!   point (a block-row, or a pair in a batch), so the two overlap for at
//!   most one block-row. When the active job ends, the most recently
//!   parked job resumes exactly where it stopped — unless a queued job
//!   outranks it; on a tie the parked job goes first. Nothing is
//!   checkpointed, rewound or requeued, so a parked job's scores stay
//!   bit-identical. At most [`MAX_PARKED`] jobs are parked; beyond that,
//!   new jobs wait in the queue. A parked job stays `running` on every
//!   surface, and its wall time includes the time it was parked.
//! * Submission ([`AlignService::submit`]) assigns a monotonically
//!   increasing id, places the spec in the queue, and returns immediately.
//!   Each job gets its own [`LiveTelemetry`] handle at submit time, so
//!   progress is streamable from the moment it starts running.
//! * **Cancellation** is cooperative: [`AlignService::cancel`] removes a
//!   still-queued job outright; a running job — active or parked — is
//!   cancelled through its [`RunControl`], which the pipeline workers poll
//!   at every block-row and the batch engine between pairs — see
//!   [`PipelineError::Cancelled`]. Terminal jobs are untouched.
//! * **Device loss is scoped to the job.** Blacklists live inside
//!   [`PipelineRun`](crate::pipeline::PipelineRun) /
//!   [`BatchRun`](crate::batch::BatchRun), so a loss during job N
//!   recovers in-run (bit-identical score) and the queue survives: job
//!   N+1 starts with the full platform again and simply re-routes if the
//!   device is still dead. No queued job is dropped or reordered.
//! * **SLOs**: the service republishes a `service.*` metrics registry to
//!   its [`MetricsHub`] on every transition and every publisher tick —
//!   job counters, preemptions, queue depth/peak gauges, and per-job
//!   p50/p90/p99 latency (submission → completion, in ms, as explicit
//!   counters because the Prometheus exposition carries no quantile
//!   lines). Each latency is recorded once, at completion, so publishing
//!   costs the same whatever the number of completed jobs.
//! * [`AlignService::handler`] mounts the HTTP surface onto
//!   [`MetricsServer::bind_routed`](megasw_obs::MetricsServer):
//!   `POST /jobs`, `GET /jobs`, `GET /jobs/:id`, `GET /jobs/:id/events`
//!   (NDJSON progress), `DELETE /jobs/:id`; `/metrics`, `/health` and
//!   `/flight` stay on the built-in routes.

use crate::batch::{percentile, BatchConfig, BatchFault, BatchJob};
use crate::checkpoint::RecoveryPolicy;
use crate::config::{CheckpointCadence, PartitionPolicy, PruneMode, RebalanceMode, RunConfig};
use crate::error::MegaswError;
use crate::job::{JobKind, JobReport, JobSpec};
use crate::pipeline::{FaultSchedule, PipelineError, RunControl};
use megasw_gpusim::Platform;
use megasw_obs::json::{self, escape, Value};
use megasw_obs::{Histogram, LiveTelemetry, MetricsHub, MetricsRegistry, Request, Response};
use megasw_seq::fasta::read_single_fasta_str;
use megasw_seq::DnaSeq;
use megasw_sw::kernel::KernelDispatch;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most jobs parked at once. Every parked job holds its runner thread and
/// its pipeline's worker threads, and any `i64` is a valid priority, so
/// without a cap a client could make the service hold threads without
/// bound. A job that would park a further one waits in the queue.
pub const MAX_PARKED: usize = 4;

/// Lifecycle of one job. The only transitions are
/// `Queued → Running → {Done, Failed, Cancelled}` and
/// `Queued → Cancelled` (cancelled before execution started). A job
/// parked by a higher-priority one stays `Running`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Terminal states never transition again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Service-wide execution defaults.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Config for jobs without a per-job override.
    pub base: RunConfig,
    /// Recovery policy applied to every job (device-loss survival).
    pub recovery: Option<RecoveryPolicy>,
    /// Sampling interval of `GET /jobs/:id/events` streams.
    pub events_interval: Duration,
}

impl ServiceConfig {
    pub fn new(base: RunConfig) -> ServiceConfig {
        ServiceConfig {
            base,
            recovery: None,
            events_interval: Duration::from_millis(50),
        }
    }

    /// Small-geometry defaults for tests.
    pub fn test_default() -> ServiceConfig {
        ServiceConfig {
            base: RunConfig::test_default(),
            recovery: None,
            events_interval: Duration::from_millis(5),
        }
    }

    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> ServiceConfig {
        self.recovery = Some(policy);
        self
    }
}

/// Public snapshot of one job, whatever its state.
#[derive(Debug, Clone)]
pub struct JobStatus {
    pub id: u64,
    pub name: String,
    pub kind: JobKind,
    pub priority: i64,
    pub state: JobState,
    /// Present once the job is `Done`.
    pub report: Option<JobReport>,
    /// Present once the job is `Failed`.
    pub error: Option<String>,
    /// Submission → completion, present once terminal (except jobs
    /// cancelled while still queued, which never ran).
    pub latency: Option<Duration>,
    /// Times a higher-priority job parked this one.
    pub preemptions: u64,
}

struct JobEntry {
    id: u64,
    name: String,
    kind: JobKind,
    priority: i64,
    state: JobState,
    /// Taken by the executor when the job starts running.
    spec: Option<JobSpec>,
    control: Arc<RunControl>,
    live: Arc<LiveTelemetry>,
    report: Option<JobReport>,
    error: Option<String>,
    submitted: Instant,
    latency: Option<Duration>,
    preemptions: u64,
}

impl JobEntry {
    fn status(&self) -> JobStatus {
        JobStatus {
            id: self.id,
            name: self.name.clone(),
            kind: self.kind,
            priority: self.priority,
            state: self.state,
            report: self.report.clone(),
            error: self.error.clone(),
            latency: self.latency,
            preemptions: self.preemptions,
        }
    }
}

#[derive(Default, Clone, Copy)]
struct Counters {
    submitted: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    recoveries: u64,
    preemptions: u64,
}

/// Latencies of `Done` jobs, kept incrementally: each is recorded once, at
/// completion, so a publish costs the same at any number of jobs.
#[derive(Default)]
struct LatencySlo {
    /// Ascending, for the exact nearest-rank percentiles.
    sorted: Vec<Duration>,
    /// `service.job_latency_ms`, in ms.
    histogram: Histogram,
}

impl LatencySlo {
    fn record(&mut self, latency: Duration) {
        let at = self.sorted.partition_point(|&l| l <= latency);
        self.sorted.insert(at, latency);
        self.histogram.record(latency.as_secs_f64() * 1e3);
    }

    fn percentile_ms(&self, p: f64) -> u64 {
        percentile(&self.sorted, p).as_millis() as u64
    }
}

/// A job the executor hands to a new runner thread.
struct Start {
    id: u64,
    spec: JobSpec,
    control: Arc<RunControl>,
    live: Arc<LiveTelemetry>,
}

struct State {
    next_id: u64,
    /// Job ids in execution order: higher priority first, FIFO within a
    /// priority (maintained at insert). Holds only `Queued` jobs.
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, JobEntry>,
    /// The job that holds the devices.
    active: Option<u64>,
    /// Jobs parked in place by a higher-priority job, most recently
    /// parked last; never longer than [`MAX_PARKED`].
    parked: Vec<u64>,
    queue_peak: u64,
    counters: Counters,
    slo: LatencySlo,
    /// Ids in the order their execution finished (chaos tests assert
    /// device loss never reorders the stream).
    completed_order: Vec<u64>,
    /// Runner threads not yet joined.
    runners: Vec<JoinHandle<()>>,
}

impl State {
    fn new() -> State {
        State {
            next_id: 1,
            queue: VecDeque::new(),
            jobs: BTreeMap::new(),
            active: None,
            parked: Vec::new(),
            queue_peak: 0,
            counters: Counters::default(),
            slo: LatencySlo::default(),
            completed_order: Vec::new(),
            runners: Vec::new(),
        }
    }

    fn enqueue(&mut self, spec: JobSpec, priority: i64, live: Arc<LiveTelemetry>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let entry = JobEntry {
            id,
            name: spec.name(),
            kind: spec.kind(),
            priority,
            state: JobState::Queued,
            spec: Some(spec),
            control: Arc::new(RunControl::new()),
            live,
            report: None,
            error: None,
            submitted: Instant::now(),
            latency: None,
            preemptions: 0,
        };
        // Insert before the first queued job with a strictly lower
        // priority: higher priority first, FIFO within a priority.
        let pos = self
            .queue
            .iter()
            .position(|qid| self.jobs[qid].priority < priority)
            .unwrap_or(self.queue.len());
        self.queue.insert(pos, id);
        self.jobs.insert(id, entry);
        self.counters.submitted += 1;
        self.queue_peak = self.queue_peak.max(self.queue.len() as u64);
        id
    }

    /// Apply the scheduling rules after the queue, the active job or the
    /// parked stack changed. Parks the active job when the queue's head
    /// strictly outranks it and the stack has room; resumes the top parked
    /// job when nothing is active and no queued job outranks it. Returns
    /// the queued job to start on a new runner, if any.
    fn schedule(&mut self) -> Option<Start> {
        let head = self.queue.front().map(|id| self.jobs[id].priority);
        let outranked = |id: u64| head.is_some_and(|p| p > self.jobs[&id].priority);
        if let Some(active) = self.active {
            if !outranked(active) || self.parked.len() >= MAX_PARKED {
                return None;
            }
            // No wait for the workers to acknowledge: they stop at their
            // next poll point, at most one block-row from now.
            let job = self.jobs.get_mut(&active).expect("active job exists");
            job.control.park();
            job.preemptions += 1;
            self.counters.preemptions += 1;
            self.parked.push(active);
            self.active = None;
        } else if let Some(&top) = self.parked.last() {
            if !outranked(top) {
                self.parked.pop();
                self.jobs[&top].control.resume();
                self.active = Some(top);
                return None;
            }
        }
        let id = self.queue.pop_front()?;
        let job = self.jobs.get_mut(&id).expect("queued job exists");
        debug_assert_eq!(job.state, JobState::Queued, "the queue holds queued jobs");
        job.state = JobState::Running;
        self.active = Some(id);
        Some(Start {
            id,
            spec: job.spec.take().expect("queued job carries its spec"),
            control: Arc::clone(&job.control),
            live: Arc::clone(&job.live),
        })
    }

    /// Record job `id`'s result, once, and take it off the devices: out of
    /// the active slot, or off the parked stack when it finished while
    /// being parked (its last poll point was already behind it).
    fn finish(&mut self, id: u64, result: Result<JobReport, MegaswError>) {
        let job = self.jobs.get_mut(&id).expect("running job exists");
        debug_assert_eq!(job.state, JobState::Running, "job {id} finished twice");
        let latency = job.submitted.elapsed();
        job.latency = Some(latency);
        match result {
            Ok(report) => {
                self.counters.completed += 1;
                self.counters.recoveries += report.recoveries;
                self.slo.record(latency);
                job.state = JobState::Done;
                job.report = Some(report);
            }
            Err(e) if matches!(e.as_pipeline(), Some(PipelineError::Cancelled)) => {
                self.counters.cancelled += 1;
                job.state = JobState::Cancelled;
            }
            Err(e) => {
                self.counters.failed += 1;
                job.state = JobState::Failed;
                job.error = Some(e.to_string());
            }
        }
        self.completed_order.push(id);
        if self.active == Some(id) {
            self.active = None;
        } else {
            self.parked.retain(|&p| p != id);
        }
    }

    /// Jobs on the devices: the active one plus the parked ones.
    fn running(&self) -> usize {
        usize::from(self.active.is_some()) + self.parked.len()
    }
}

struct Inner {
    platform: Platform,
    cfg: ServiceConfig,
    hub: Arc<MetricsHub>,
    state: Mutex<State>,
    /// Wakes [`AlignService::wait`]ers: a job reached a terminal state.
    finished: Condvar,
    stop: AtomicBool,
    /// Serialises [`Inner::publish`] without holding the state lock.
    publishing: Mutex<()>,
}

/// The resident engine. Dropping it (or calling
/// [`AlignService::shutdown`]) stops the executor: the active job and
/// every parked job are cancelled cooperatively and queued jobs stay
/// unexecuted.
pub struct AlignService {
    inner: Arc<Inner>,
    publisher: Option<std::thread::JoinHandle<()>>,
}

impl AlignService {
    /// Spawn the executor (and the metrics publisher) for `platform`,
    /// publishing SLOs into `hub`.
    pub fn start(platform: Platform, cfg: ServiceConfig, hub: Arc<MetricsHub>) -> AlignService {
        let inner = Arc::new(Inner {
            platform,
            cfg,
            hub,
            state: Mutex::new(State::new()),
            finished: Condvar::new(),
            stop: AtomicBool::new(false),
            publishing: Mutex::new(()),
        });
        inner.publish();
        let publisher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("megasw-service-pub".into())
                .spawn(move || {
                    while !inner.stop.load(Ordering::Relaxed) {
                        inner.publish();
                        std::thread::sleep(Duration::from_millis(200));
                    }
                })
                .expect("spawn service publisher")
        };
        AlignService {
            inner,
            publisher: Some(publisher),
        }
    }

    /// The hub this service publishes into (serve it with
    /// [`MetricsServer`](megasw_obs::MetricsServer)).
    pub fn hub(&self) -> Arc<MetricsHub> {
        Arc::clone(&self.inner.hub)
    }

    /// Enqueue a job at default priority 0. Returns its id immediately.
    pub fn submit(&self, spec: JobSpec) -> u64 {
        self.submit_with_priority(spec, 0)
    }

    /// Enqueue a job; higher `priority` runs sooner, FIFO within equal
    /// priorities.
    pub fn submit_with_priority(&self, spec: JobSpec, priority: i64) -> u64 {
        let id = self.inner.enqueue(spec, priority);
        self.inner.dispatch(&mut self.inner.lock());
        self.inner.publish();
        id
    }

    /// Snapshot of one job, `None` for unknown ids.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        self.inner.lock().jobs.get(&id).map(JobEntry::status)
    }

    /// Snapshot of every job the service has seen, by ascending id.
    pub fn jobs(&self) -> Vec<JobStatus> {
        self.inner
            .lock()
            .jobs
            .values()
            .map(JobEntry::status)
            .collect()
    }

    /// Cooperatively cancel a job; returns its state after the request
    /// (`Cancelled` immediately for queued jobs, `Running` for a job that
    /// will stop at its next block-row — or next pair, for a batch's small
    /// pairs; a parked job wakes to stop — unchanged for terminal jobs),
    /// `None` for unknown ids.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let state = self.inner.cancel(id);
        self.inner.publish();
        state
    }

    /// Jobs whose execution has finished, in completion order.
    pub fn completed_order(&self) -> Vec<u64> {
        self.inner.lock().completed_order.clone()
    }

    /// Jobs currently waiting to run.
    pub fn queue_depth(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Block until job `id` reaches a terminal state or `timeout` elapses;
    /// returns the final status, `None` on timeout or unknown id. Wakes on
    /// the job's terminal transition, not by polling.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.lock();
        loop {
            let job = st.jobs.get(&id)?;
            if job.state.is_terminal() {
                return Some(job.status());
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            if left.is_zero() {
                return None;
            }
            st = self
                .inner
                .finished
                .wait_timeout(st, left)
                .expect("service state lock poisoned")
                .0;
        }
    }

    /// The HTTP route hook for
    /// [`MetricsServer::bind_routed`](megasw_obs::MetricsServer): the
    /// `/jobs` surface; `None` (fall-through to the built-in routes) for
    /// everything else.
    pub fn handler(&self) -> megasw_obs::Handler {
        let inner = Arc::clone(&self.inner);
        Arc::new(move |req: &Request| route(&inner, req))
    }

    /// Stop the executor: the active job and every parked job are
    /// cancelled cooperatively and their runners joined, queued jobs stay
    /// `Queued` forever. Idempotent.
    pub fn shutdown(&mut self) {
        let runners = {
            // Set under the lock, where `dispatch` reads it: no job
            // starts or resumes after this.
            let mut st = self.inner.lock();
            self.inner.stop.store(true, Ordering::Relaxed);
            for id in st.active.iter().chain(&st.parked) {
                st.jobs[id].control.cancel();
            }
            std::mem::take(&mut st.runners)
        };
        for h in runners {
            let _ = h.join();
        }
        if let Some(h) = self.publisher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for AlignService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One job on its runner thread: execute it, record the result, start or
/// resume what that allows, and wake the waiters.
fn run_job(inner: &Arc<Inner>, start: Start) {
    let Start {
        id,
        spec,
        control,
        live,
    } = start;
    let result = spec.execute(
        &inner.platform,
        &inner.cfg.base,
        inner.cfg.recovery,
        Some(live),
        Some(control),
    );
    {
        let mut st = inner.lock();
        st.finish(id, result);
        inner.dispatch(&mut st);
    }
    // Publish before waking the waiters, so a returned `wait` sees the
    // job in the metrics.
    inner.publish();
    inner.finished.notify_all();
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("service state lock poisoned")
    }

    /// Queue a job; [`Inner::dispatch`] then decides whether it starts.
    fn enqueue(&self, spec: JobSpec, priority: i64) -> u64 {
        let live = LiveTelemetry::new(
            self.platform.len(),
            u64::try_from(spec.total_cells()).unwrap_or(u64::MAX),
        );
        self.lock().enqueue(spec, priority, live)
    }

    /// The executor: apply the scheduling rules after a job was queued or
    /// finished, starting each new job on a runner thread of its own.
    /// Called under the state lock by the thread that changed the state,
    /// so starting a job wakes no other thread. Does nothing once stopped.
    fn dispatch(self: &Arc<Self>, st: &mut State) {
        if self.stop.load(Ordering::Relaxed) {
            return;
        }
        while let Some(start) = st.schedule() {
            // Reap finished runners; at most the active job and
            // MAX_PARKED parked ones are still running.
            for h in st.runners.extract_if(.., |h| h.is_finished()) {
                let _ = h.join();
            }
            let inner = Arc::clone(self);
            st.runners.push(
                std::thread::Builder::new()
                    .name("megasw-service-run".into())
                    .spawn(move || run_job(&inner, start))
                    .expect("spawn service runner"),
            );
        }
    }

    fn cancel(&self, id: u64) -> Option<JobState> {
        let mut st = self.lock();
        let job = st.jobs.get_mut(&id)?;
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                job.control.cancel();
                st.counters.cancelled += 1;
                st.queue.retain(|&q| q != id);
                self.finished.notify_all();
            }
            JobState::Running => job.control.cancel(),
            _ => {}
        }
        Some(st.jobs[&id].state)
    }

    /// Publish the `service.*` registry plus `/health`. Only a snapshot is
    /// taken under the state lock; the registry is built after it.
    fn publish(&self) {
        // Publishers run in snapshot order, so a stale snapshot never
        // overwrites a newer one.
        let _order = self.publishing.lock().expect("publish lock poisoned");
        let snap = SloSnapshot::of(&self.lock());
        let (m, health) = snap.registry();
        self.hub.publish(m);
        self.hub.set_health(true, health);
    }
}

/// What one publish reads from [`State`]: no per-job work.
struct SloSnapshot {
    counters: Counters,
    queue_depth: u64,
    queue_peak: u64,
    running: u64,
    /// Exact nearest-rank p50/p90/p99 in ms plus the histogram, once any
    /// job completed.
    latency: Option<([u64; 3], Histogram)>,
}

impl SloSnapshot {
    fn of(st: &State) -> SloSnapshot {
        SloSnapshot {
            counters: st.counters,
            queue_depth: st.queue.len() as u64,
            queue_peak: st.queue_peak,
            running: st.running() as u64,
            latency: (!st.slo.sorted.is_empty()).then(|| {
                (
                    [50.0, 90.0, 99.0].map(|p| st.slo.percentile_ms(p)),
                    st.slo.histogram.clone(),
                )
            }),
        }
    }

    /// The registry and the `/health` state label.
    fn registry(self) -> (MetricsRegistry, &'static str) {
        let mut m = MetricsRegistry::new();
        m.describe("service.jobs_submitted", "Jobs accepted into the queue");
        m.describe("service.jobs_completed", "Jobs finished successfully");
        m.describe("service.jobs_failed", "Jobs that errored");
        m.describe(
            "service.jobs_cancelled",
            "Jobs cancelled before or during execution",
        );
        m.describe(
            "service.recoveries_total",
            "Device losses survived across all jobs",
        );
        m.describe(
            "service.preemptions_total",
            "Times a running job was parked in place for a higher-priority job",
        );
        m.describe("service.queue_depth", "Jobs currently waiting to run");
        m.describe("service.queue_peak", "Highest queue depth observed");
        m.describe(
            "service.jobs_running",
            "Jobs currently executing: the active job plus the parked ones",
        );
        m.describe(
            "service.job_latency_p50_ms",
            "Median submission-to-completion latency of completed jobs (ms)",
        );
        m.describe(
            "service.job_latency_p90_ms",
            "p90 submission-to-completion latency of completed jobs (ms)",
        );
        m.describe(
            "service.job_latency_p99_ms",
            "p99 submission-to-completion latency of completed jobs (ms)",
        );
        let c = self.counters;
        m.incr("service.jobs_submitted", c.submitted);
        m.incr("service.jobs_completed", c.completed);
        m.incr("service.jobs_failed", c.failed);
        m.incr("service.jobs_cancelled", c.cancelled);
        m.incr("service.recoveries_total", c.recoveries);
        m.incr("service.preemptions_total", c.preemptions);
        m.incr("service.queue_depth", self.queue_depth);
        m.incr("service.queue_peak", self.queue_peak);
        m.incr("service.jobs_running", self.running);
        if let Some(([p50, p90, p99], histogram)) = self.latency {
            // Explicit counters, not histogram buckets: the Prometheus
            // text exposition renders no quantile lines, and the SLO is
            // exactly "p50/p99 over completed jobs".
            m.incr("service.job_latency_p50_ms", p50);
            m.incr("service.job_latency_p90_ms", p90);
            m.incr("service.job_latency_p99_ms", p99);
            m.insert_histogram("service.job_latency_ms", histogram);
        }
        let health = if self.running > 0 {
            "running"
        } else if self.queue_depth == 0 {
            "idle"
        } else {
            "queued"
        };
        (m, health)
    }
}

// ───────────────────────────── HTTP surface ─────────────────────────────

fn route(inner: &Arc<Inner>, req: &Request) -> Option<Response> {
    let path = req.path.as_str();
    if path == "/jobs" {
        return match req.method.as_str() {
            "POST" => Some(match submit_from_json(inner, &req.body_str()) {
                Ok(id) => {
                    inner.dispatch(&mut inner.lock());
                    inner.publish();
                    Response::json(
                        "202 Accepted",
                        format!("{{\"job\": {id}, \"state\": \"queued\"}}\n"),
                    )
                }
                Err(msg) => bad_request(&msg),
            }),
            "GET" => {
                let st = inner.lock();
                let jobs: Vec<String> = st.jobs.values().map(|j| job_json(j, false)).collect();
                Some(Response::ok_json(format!(
                    "{{\"jobs\": [{}]}}\n",
                    jobs.join(", ")
                )))
            }
            _ => None, // fall through to the built-in 405
        };
    }
    let rest = path.strip_prefix("/jobs/")?;
    let (id_str, events) = match rest.strip_suffix("/events") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    let id: u64 = match id_str.parse() {
        Ok(id) => id,
        Err(_) => return Some(bad_request("job id must be an integer")),
    };
    match (req.method.as_str(), events) {
        ("GET", false) => Some({
            let st = inner.lock();
            match st.jobs.get(&id) {
                Some(job) => Response::ok_json(format!("{}\n", job_json(job, true))),
                None => not_found(id),
            }
        }),
        ("GET", true) => Some(events_stream(inner, id)),
        ("DELETE", false) => Some(match inner.cancel(id) {
            Some(state) => {
                inner.publish();
                Response::ok_json(format!(
                    "{{\"job\": {id}, \"state\": \"{}\"}}\n",
                    state.name()
                ))
            }
            None => not_found(id),
        }),
        _ => None,
    }
}

fn bad_request(msg: &str) -> Response {
    Response::json(
        "400 Bad Request",
        format!("{{\"error\": \"{}\"}}\n", escape(msg)),
    )
}

fn not_found(id: u64) -> Response {
    Response::json("404 Not Found", format!("{{\"error\": \"no job {id}\"}}\n"))
}

/// NDJSON progress stream: one line per sampling tick (plus a final line
/// at the terminal state), fed from the job's [`LiveTelemetry`].
fn events_stream(inner: &Arc<Inner>, id: u64) -> Response {
    {
        let st = inner.lock();
        if !st.jobs.contains_key(&id) {
            return not_found(id);
        }
    }
    let inner = Arc::clone(inner);
    let (tx, rx) = mpsc::sync_channel::<String>(64);
    std::thread::Builder::new()
        .name("megasw-service-events".into())
        .spawn(move || {
            loop {
                let (state, line) = {
                    let st = inner.lock();
                    let Some(job) = st.jobs.get(&id) else { return };
                    (job.state, event_line(job))
                };
                if tx.send(line).is_err() {
                    return; // client hung up
                }
                if state.is_terminal() || inner.stop.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(inner.cfg.events_interval);
            }
        })
        .expect("spawn events sampler");
    Response::ndjson_stream(rx)
}

fn event_line(job: &JobEntry) -> String {
    let snap = job.live.snapshot();
    let mut line = format!(
        "{{\"job\": {}, \"state\": \"{}\", \"fraction_done\": {:.4}, \"cells_done\": {}, \"gcups\": {:.3}, \"recoveries\": {}",
        job.id,
        job.state.name(),
        snap.fraction_done(),
        snap.cells_done(),
        snap.gcups_cumulative(),
        snap.recoveries,
    );
    if snap.pairs_total > 0 {
        line.push_str(&format!(
            ", \"pairs_done\": {}, \"pairs_total\": {}",
            snap.pairs_done, snap.pairs_total
        ));
    }
    if let Some(report) = &job.report {
        line.push_str(&format!(", \"best_score\": {}", report.best_score()));
    }
    line.push_str("}\n");
    line
}

/// One job as a JSON object; `full` adds the report (outcome list).
fn job_json(job: &JobEntry, full: bool) -> String {
    let mut s = format!(
        "{{\"job\": {}, \"name\": \"{}\", \"kind\": \"{}\", \"state\": \"{}\", \"priority\": {}, \"preemptions\": {}",
        job.id,
        escape(&job.name),
        job.kind.name(),
        job.state.name(),
        job.priority,
        job.preemptions,
    );
    if let Some(latency) = job.latency {
        s.push_str(&format!(
            ", \"latency_ms\": {:.3}",
            latency.as_secs_f64() * 1e3
        ));
    }
    if let Some(err) = &job.error {
        s.push_str(&format!(", \"error\": \"{}\"", escape(err)));
    }
    if let Some(report) = &job.report {
        s.push_str(&format!(", \"best_score\": {}", report.best_score()));
        if full {
            s.push_str(&format!(", \"report\": {}", report_json(report)));
        }
    }
    s.push('}');
    s
}

fn report_json(report: &JobReport) -> String {
    let outcomes: Vec<String> = report
        .outcomes
        .iter()
        .map(|o| {
            let device = o
                .device
                .map_or_else(|| "null".to_string(), |d| d.to_string());
            format!(
                "{{\"pair\": {}, \"id\": \"{}\", \"m\": {}, \"n\": {}, \"score\": {}, \"i\": {}, \"j\": {}, \"device\": {}, \"large\": {}, \"latency_ms\": {:.3}, \"recoveries\": {}}}",
                o.pair,
                escape(&o.id),
                o.m,
                o.n,
                o.best.score,
                o.best.i,
                o.best.j,
                device,
                o.large,
                o.latency.as_secs_f64() * 1e3,
                o.recoveries,
            )
        })
        .collect();
    let failed: Vec<String> = report.failed_devices.iter().map(usize::to_string).collect();
    format!(
        "{{\"kind\": \"{}\", \"best_score\": {}, \"total_cells\": {}, \"wall_ms\": {:.3}, \"gcups\": {:.3}, \"recoveries\": {}, \"requeued\": {}, \"failed_devices\": [{}], \"latency_p50_ms\": {:.3}, \"latency_p90_ms\": {:.3}, \"latency_p99_ms\": {:.3}, \"outcomes\": [{}]}}",
        report.kind.name(),
        report.best_score(),
        report.total_cells,
        report.wall_time.as_secs_f64() * 1e3,
        report.gcups_wall,
        report.recoveries,
        report.requeued,
        failed.join(", "),
        report.latency_p50.as_secs_f64() * 1e3,
        report.latency_p90.as_secs_f64() * 1e3,
        report.latency_p99.as_secs_f64() * 1e3,
        outcomes.join(", "),
    )
}

// ─────────────────────────── request decoding ───────────────────────────

/// Decode a `POST /jobs` body into a [`JobSpec`] and enqueue it.
///
/// Body shape (`kind` may be omitted — `pairs` implies `batch`):
///
/// ```json
/// {"kind": "single-pair", "id": "chr1-vs-chr1", "a": "ACGT…", "b": ">hdr\nACGT…",
///  "priority": 0, "policy": {"kernel": "avx512", "prune": "distributed",
///  "rebalance": "on:0.1", "checkpoint_rows": 8, "equal": true, "block": 256},
///  "fault": "0:4:compute"}
/// {"kind": "batch", "pairs": [{"id": "p0", "a": "…", "b": "…"}, …],
///  "threshold_cells": 16777216, "bins": 8, "faults": ["2@0:1"]}
/// ```
///
/// Sequences are raw bases or FASTA text (anything containing `>`).
fn submit_from_json(inner: &Arc<Inner>, body: &str) -> Result<u64, String> {
    let v = json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let priority = v.get("priority").and_then(Value::as_f64).unwrap_or(0.0) as i64;
    let config = match v.get("policy") {
        Some(p) => Some(config_from_policy(&inner.cfg.base, p)?),
        None => None,
    };
    let is_batch = match v.get("kind").and_then(Value::as_str) {
        Some("batch") => true,
        Some("single-pair") => false,
        Some(other) => return Err(format!("unknown job kind `{other}`")),
        None => v.get("pairs").is_some(),
    };
    let spec = if is_batch {
        let pairs = v
            .get("pairs")
            .and_then(Value::as_array)
            .ok_or("batch job needs a `pairs` array")?;
        if pairs.is_empty() {
            return Err("batch job needs at least one pair".into());
        }
        let mut jobs = Vec::with_capacity(pairs.len());
        for (i, p) in pairs.iter().enumerate() {
            let id = p
                .get("id")
                .and_then(Value::as_str)
                .map_or_else(|| format!("pair{i}"), str::to_string);
            let a = codes_from_text(require_str(p, "a", &id)?)?;
            let b = codes_from_text(require_str(p, "b", &id)?)?;
            jobs.push(BatchJob::new(id, a, b));
        }
        let mut batch_cfg = BatchConfig::default();
        if let Some(base) = config {
            batch_cfg = batch_cfg.with_base(base);
        } else {
            batch_cfg = batch_cfg.with_base(inner.cfg.base.clone());
        }
        if let Some(t) = v.get("threshold_cells").and_then(Value::as_f64) {
            batch_cfg = batch_cfg.with_large_threshold_cells(t as u128);
        }
        if let Some(bins) = v.get("bins").and_then(Value::as_f64) {
            batch_cfg = batch_cfg.with_bins(bins as usize);
        }
        let mut faults: Vec<BatchFault> = Vec::new();
        if let Some(list) = v.get("faults").and_then(Value::as_array) {
            for f in list {
                let s = f.as_str().ok_or("batch `faults` entries must be strings")?;
                faults.push(s.parse::<BatchFault>()?);
            }
        }
        JobSpec::Batch {
            jobs,
            config: Some(batch_cfg),
            faults,
        }
    } else {
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .unwrap_or("pair")
            .to_string();
        let a = codes_from_text(require_str(&v, "a", &id)?)?;
        let b = codes_from_text(require_str(&v, "b", &id)?)?;
        let faults = match v.get("fault").and_then(Value::as_str) {
            Some(s) => s.parse::<FaultSchedule>()?,
            None => FaultSchedule::default(),
        };
        JobSpec::SinglePair {
            id,
            a,
            b,
            config,
            faults,
        }
    };
    Ok(inner.enqueue(spec, priority))
}

fn require_str<'v>(v: &'v Value, key: &str, id: &str) -> Result<&'v str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("pair `{id}` needs a string `{key}` field"))
}

/// Decode a sequence field: FASTA text (first record) when it contains a
/// `>` header, raw bases otherwise.
fn codes_from_text(text: &str) -> Result<Vec<u8>, String> {
    if text.contains('>') {
        read_single_fasta_str(text)
            .map(|r| r.seq.codes().to_vec())
            .map_err(|e| format!("bad FASTA sequence: {e}"))
    } else {
        DnaSeq::from_ascii(text.trim().as_bytes())
            .map(|s| s.codes().to_vec())
            .map_err(|pos| format!("invalid base at position {pos}"))
    }
}

/// Apply a JSON `policy` object onto a base [`RunConfig`] — the same
/// knobs the CLI's `cli_policy` flags expose, so `megasw submit` can
/// forward `--kernel`/`--prune`/`--rebalance`/… verbatim.
fn config_from_policy(base: &RunConfig, policy: &Value) -> Result<RunConfig, String> {
    let mut cfg = base.clone();
    if let Some(k) = policy.get("kernel").and_then(Value::as_str) {
        cfg = cfg.with_dispatch(KernelDispatch::parse(k)?);
    }
    if let Some(p) = policy.get("prune").and_then(Value::as_str) {
        cfg = cfg.with_pruning(PruneMode::parse(p)?);
    }
    if let Some(r) = policy.get("rebalance").and_then(Value::as_str) {
        cfg = cfg.with_rebalance(RebalanceMode::parse(r)?);
    }
    if let Some(rows) = policy.get("checkpoint_rows").and_then(Value::as_f64) {
        let rows = rows as usize;
        if rows == 0 {
            return Err("checkpoint_rows must be positive".into());
        }
        cfg = cfg.with_checkpoint(CheckpointCadence::EveryRows(rows));
    }
    if policy.get("equal").and_then(as_bool) == Some(true) {
        cfg = cfg.with_partition(PartitionPolicy::Equal);
    }
    if let Some(side) = policy.get("block").and_then(Value::as_f64) {
        cfg = cfg.with_block(side as usize);
    }
    Ok(cfg)
}

fn as_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(m: usize, n: usize) -> (Vec<u8>, Vec<u8>) {
        (
            (0..m).map(|k| (k % 4) as u8).collect(),
            (0..n).map(|k| ((k + 1) % 4) as u8).collect(),
        )
    }

    fn service() -> AlignService {
        AlignService::start(
            Platform::env1(),
            ServiceConfig::test_default(),
            MetricsHub::new(),
        )
    }

    #[test]
    fn jobs_complete_in_fifo_order_within_a_priority() {
        let svc = service();
        let (a, b) = seqs(64, 64);
        let ids: Vec<u64> = (0..4)
            .map(|i| svc.submit(JobSpec::single(format!("j{i}"), a.clone(), b.clone())))
            .collect();
        for &id in &ids {
            let status = svc.wait(id, Duration::from_secs(30)).expect("job finished");
            assert_eq!(status.state, JobState::Done, "{status:?}");
            assert_eq!(status.report.as_ref().unwrap().outcomes.len(), 1);
        }
        assert_eq!(svc.completed_order(), ids);
        let reg = svc.hub().registry();
        assert_eq!(reg.counter("service.jobs_completed"), Some(4));
        assert_eq!(reg.counter("service.jobs_failed"), Some(0));
    }

    #[test]
    fn higher_priority_jumps_the_queue() {
        let svc = service();
        // A long-enough first job keeps the queue stable while we stack
        // priorities behind it.
        let (big_a, big_b) = seqs(1200, 1200);
        let (a, b) = seqs(48, 48);
        let first = svc.submit(JobSpec::single("first", big_a, big_b));
        let low = svc.submit_with_priority(JobSpec::single("low", a.clone(), b.clone()), 0);
        let high = svc.submit_with_priority(JobSpec::single("high", a.clone(), b.clone()), 5);
        for id in [first, low, high] {
            assert!(svc.wait(id, Duration::from_secs(30)).is_some());
        }
        let order = svc.completed_order();
        let pos = |id: u64| order.iter().position(|&x| x == id).unwrap();
        assert!(
            pos(high) < pos(low),
            "priority 5 must run before priority 0: {order:?}"
        );
    }

    #[test]
    fn queued_job_cancels_immediately_and_unknown_ids_are_none() {
        let svc = service();
        let (big_a, big_b) = seqs(1200, 1200);
        let (a, b) = seqs(32, 32);
        let running = svc.submit(JobSpec::single("run", big_a, big_b));
        let queued = svc.submit(JobSpec::single("parked", a, b));
        assert_eq!(svc.cancel(queued), Some(JobState::Cancelled));
        assert_eq!(svc.cancel(999), None);
        assert!(svc.wait(999, Duration::from_secs(1)).is_none());
        assert!(svc.wait(running, Duration::ZERO).is_none(), "timed out");
        let waited = svc.wait(queued, Duration::from_secs(30)).unwrap();
        assert_eq!(waited.state, JobState::Cancelled);
        let status = svc.status(queued).unwrap();
        assert_eq!(status.state, JobState::Cancelled);
        assert!(status.report.is_none());
        // The running job is unaffected and the cancelled one never runs.
        assert_eq!(
            svc.wait(running, Duration::from_secs(30)).unwrap().state,
            JobState::Done
        );
        assert_eq!(svc.completed_order(), vec![running]);
        let reg = svc.hub().registry();
        assert_eq!(reg.counter("service.jobs_cancelled"), Some(1));
    }

    #[test]
    fn http_submit_decodes_policy_faults_and_sequences() {
        let hub = MetricsHub::new();
        let svc = AlignService::start(Platform::env1(), ServiceConfig::test_default(), hub);
        let inner = &svc.inner;
        let id = submit_from_json(
            inner,
            r#"{"id": "x", "a": "ACGTACGT", "b": ">hdr desc\nACGT\nACGT", "policy": {"kernel": "scalar", "prune": "local", "equal": true}}"#,
        )
        .unwrap();
        let st = inner.state.lock().unwrap();
        let job = &st.jobs[&id];
        assert_eq!(job.kind, JobKind::SinglePair);
        let Some(JobSpec::SinglePair { a, b, config, .. }) = &job.spec else {
            panic!("expected single-pair spec");
        };
        assert_eq!(a.len(), 8);
        assert_eq!(b.len(), 8);
        let cfg = config.as_ref().unwrap();
        assert_eq!(cfg.policy.dispatch, KernelDispatch::ForceScalar);
        assert_eq!(cfg.policy.pruning, PruneMode::Local);
        assert_eq!(cfg.policy.partition, PartitionPolicy::Equal);
        drop(st);

        let batch_id = submit_from_json(
            inner,
            r#"{"pairs": [{"a": "ACG", "b": "ACG"}, {"id": "q", "a": "TT", "b": "TT"}],
                "bins": 2, "faults": ["1@0:0"]}"#,
        )
        .unwrap();
        let st = inner.state.lock().unwrap();
        let Some(JobSpec::Batch { jobs, faults, .. }) = &st.jobs[&batch_id].spec else {
            panic!("expected batch spec");
        };
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, "pair0");
        assert_eq!(jobs[1].id, "q");
        assert_eq!(faults.len(), 1);
        drop(st);

        assert!(submit_from_json(inner, "not json").is_err());
        assert!(submit_from_json(inner, r#"{"kind": "warp"}"#).is_err());
        assert!(submit_from_json(inner, r#"{"a": "ACGT"}"#).is_err());
        assert!(
            submit_from_json(inner, r#"{"a": "AXGT", "b": "ACGT"}"#).is_err(),
            "invalid base must be rejected"
        );
    }

    #[test]
    fn status_json_is_parseable_and_carries_the_report() {
        let svc = service();
        let (a, b) = seqs(72, 72);
        let id = svc.submit(JobSpec::single("jsonable", a, b));
        svc.wait(id, Duration::from_secs(30)).unwrap();
        let st = svc.inner.state.lock().unwrap();
        let text = job_json(&st.jobs[&id], true);
        let v = json::parse(&text).expect("job JSON must parse");
        assert_eq!(v.get("state").unwrap().as_str(), Some("done"));
        let report = v.get("report").unwrap();
        assert_eq!(report.get("outcomes").unwrap().as_array().unwrap().len(), 1);
        let listing = format!(
            "{{\"jobs\": [{}]}}",
            st.jobs
                .values()
                .map(|j| job_json(j, false))
                .collect::<Vec<_>>()
                .join(", ")
        );
        assert!(json::parse(&listing).is_ok(), "{listing}");
    }

    /// Block until job `id` has started and computed at least `fraction`
    /// of its cells.
    fn wait_for_progress(svc: &AlignService, id: u64, fraction: f64) {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            {
                let st = svc.inner.lock();
                let job = &st.jobs[&id];
                assert!(!job.state.is_terminal(), "job {id} ended too early");
                if job.state == JobState::Running && job.live.snapshot().fraction_done() >= fraction
                {
                    return;
                }
            }
            assert!(Instant::now() < deadline, "job {id} made no progress");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A forced-scalar single pair: slow enough to still be running
    /// while a test stacks other jobs on top of it, even on a loaded host.
    fn slow_job(name: &str, a: &[u8], b: &[u8]) -> JobSpec {
        JobSpec::SinglePair {
            id: name.into(),
            a: a.to_vec(),
            b: b.to_vec(),
            config: Some(RunConfig::test_default().with_dispatch(KernelDispatch::ForceScalar)),
            faults: FaultSchedule::default(),
        }
    }

    fn solo_best(a: &[u8], b: &[u8]) -> megasw_sw::BestCell {
        crate::pipeline::PipelineRun::new(a, b, &Platform::env1())
            .config(ServiceConfig::test_default().base)
            .run()
            .unwrap()
            .best
    }

    #[test]
    fn preempted_long_job_parks_in_place_and_resumes_bit_identically() {
        let svc = service();
        let (long_a, long_b) = seqs(6_000, 2_000);
        let (a, b) = seqs(300, 300);
        let long = svc.submit_with_priority(slow_job("long", &long_a, &long_b), 0);
        wait_for_progress(&svc, long, 0.1);
        let small = svc.submit_with_priority(JobSpec::single("small", a.clone(), b.clone()), 5);
        let done = svc
            .wait(small, Duration::from_secs(60))
            .expect("small job finished");
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.report.unwrap().outcomes[0].best, solo_best(&a, &b));
        let parked = svc.status(long).unwrap();
        assert_eq!(
            parked.state,
            JobState::Running,
            "a parked job stays running"
        );
        assert_eq!(parked.preemptions, 1);
        {
            let st = svc.inner.lock();
            let text = job_json(&st.jobs[&long], false);
            let v = json::parse(&text).unwrap();
            assert_eq!(v.get("state").unwrap().as_str(), Some("running"));
            assert_eq!(v.get("preemptions").unwrap().as_f64(), Some(1.0));
            assert!(event_line(&st.jobs[&long]).contains("\"state\": \"running\""));
        }
        let finished = svc
            .wait(long, Duration::from_secs(120))
            .expect("long job finished");
        assert_eq!(finished.state, JobState::Done);
        assert_eq!(
            finished.report.unwrap().outcomes[0].best,
            solo_best(&long_a, &long_b)
        );
        assert_eq!(svc.completed_order(), vec![small, long]);
        let reg = svc.hub().registry();
        assert!(reg.counter("service.preemptions_total").unwrap() >= 1);
        assert_eq!(reg.counter("service.jobs_running"), Some(0));
    }

    #[test]
    fn max_parked_caps_the_stack_of_parked_jobs() {
        let svc = service();
        let (a, b) = seqs(2_500, 2_500);
        let want = solo_best(&a, &b);
        // Priorities 0..=5, each submitted once the previous one runs: the
        // first four are parked, priority 4 runs, and priority 5 finds the
        // stack full and waits in the queue.
        let ids: Vec<u64> = (0..6)
            .map(|p| {
                let id = svc.submit_with_priority(slow_job(&format!("p{p}"), &a, &b), p);
                if p < 5 {
                    wait_for_progress(&svc, id, 0.05);
                }
                assert!(svc.inner.lock().parked.len() <= MAX_PARKED);
                id
            })
            .collect();
        {
            let st = svc.inner.lock();
            assert_eq!(st.parked, ids[..4].to_vec());
            assert_eq!(st.active, Some(ids[4]));
            assert_eq!(st.jobs[&ids[5]].state, JobState::Queued);
            assert_eq!(st.running(), 5);
        }
        for &id in &ids {
            let s = svc
                .wait(id, Duration::from_secs(120))
                .expect("job finished");
            assert_eq!(s.state, JobState::Done);
            assert_eq!(s.report.unwrap().outcomes[0].best, want);
        }
        // Priority 5 outranks the parked priority 3 when priority 4 ends;
        // then the stack unwinds.
        let order = [4, 5, 3, 2, 1, 0].map(|k| ids[k]).to_vec();
        assert_eq!(svc.completed_order(), order);
        let reg = svc.hub().registry();
        assert_eq!(reg.counter("service.preemptions_total"), Some(4));
    }

    #[test]
    fn shutdown_with_parked_jobs_returns_promptly() {
        let mut svc = service();
        let (a, b) = seqs(6_000, 2_000);
        let low = svc.submit_with_priority(slow_job("low", &a, &b), 0);
        wait_for_progress(&svc, low, 0.05);
        let high = svc.submit_with_priority(slow_job("high", &a, &b), 1);
        wait_for_progress(&svc, high, 0.05);
        let queued = svc.submit_with_priority(slow_job("queued", &a, &b), 1);
        assert_eq!(svc.inner.lock().parked, vec![low]);
        let t = Instant::now();
        svc.shutdown();
        assert!(
            t.elapsed() < Duration::from_secs(2),
            "shutdown took {:?}",
            t.elapsed()
        );
        assert_eq!(svc.status(low).unwrap().state, JobState::Cancelled);
        assert_eq!(svc.status(high).unwrap().state, JobState::Cancelled);
        assert_eq!(svc.status(queued).unwrap().state, JobState::Queued);
        let st = svc.inner.lock();
        assert!(st.parked.is_empty() && st.active.is_none());
    }

    #[test]
    fn job_finishing_while_parked_is_recorded_once_and_ties_resume_parked_first() {
        let mut st = State::new();
        let (a, b) = seqs(40, 40);
        let live = || LiveTelemetry::new(2, 1_600);
        let run = |start: Start| {
            start.spec.execute(
                &Platform::env1(),
                &RunConfig::test_default(),
                None,
                None,
                None,
            )
        };
        let low = st.enqueue(JobSpec::single("low", a.clone(), b.clone()), 0, live());
        let low_run = st.schedule().expect("low starts");
        let high = st.enqueue(JobSpec::single("high", a.clone(), b.clone()), 1, live());
        let tie = st.enqueue(JobSpec::single("tie", a.clone(), b.clone()), 0, live());
        let high_run = st.schedule().expect("high preempts low");
        assert_eq!((st.active, st.parked.clone()), (Some(high), vec![low]));
        assert!(st.jobs[&low].control.is_parked());
        assert_eq!(st.counters.preemptions, 1);
        // Low's last poll point was already behind it: it finishes parked.
        st.finish(low, run(low_run));
        assert!(st.parked.is_empty(), "a finished job leaves the stack");
        assert_eq!(st.jobs[&low].state, JobState::Done);
        assert_eq!(st.active, Some(high));
        assert!(st.schedule().is_none(), "tie does not outrank high");
        st.finish(high, run(high_run));
        let tie_run = st.schedule().expect("nothing parked: tie starts");
        st.finish(tie, run(tie_run));
        assert_eq!(st.completed_order, vec![low, high, tie]);
        assert_eq!(st.counters.completed, 3);
        assert_eq!(st.slo.sorted.len(), 3);

        // On a tie between the parked job and the queue's head, the
        // parked job resumes first.
        let p = st.enqueue(JobSpec::single("p", a.clone(), b.clone()), 0, live());
        let _p_run = st.schedule().expect("p starts");
        let q = st.enqueue(JobSpec::single("q", a.clone(), b.clone()), 2, live());
        let q_run = st.schedule().expect("q preempts p");
        let r = st.enqueue(JobSpec::single("r", a, b), 0, live());
        st.finish(q, run(q_run));
        assert!(st.schedule().is_none(), "p resumes instead of starting r");
        assert_eq!(st.active, Some(p));
        assert!(!st.jobs[&p].control.is_parked());
        assert_eq!(st.queue.front(), Some(&r));
    }

    #[test]
    fn preemption_storm_completes_every_job_exactly_once() {
        let svc = service();
        let (a, b) = seqs(400, 300);
        let want = solo_best(&a, &b);
        let ids: Vec<u64> = (0..60)
            .map(|k| {
                let spec = if k % 5 == 4 {
                    JobSpec::batch(vec![
                        BatchJob::new("x", a.clone(), b.clone()),
                        BatchJob::new("y", b.clone(), a.clone()),
                    ])
                } else {
                    JobSpec::single(format!("j{k}"), a.clone(), b.clone())
                };
                svc.submit_with_priority(spec, (k * 7 % 3) as i64)
            })
            .collect();
        for &id in &ids {
            let s = svc
                .wait(id, Duration::from_secs(120))
                .expect("job finished");
            assert_eq!(s.state, JobState::Done, "{s:?}");
            assert_eq!(s.report.unwrap().outcomes[0].best, want);
        }
        let mut order = svc.completed_order();
        order.sort_unstable();
        assert_eq!(order, ids, "every job is recorded exactly once");
        let st = svc.inner.lock();
        assert!(st.parked.is_empty() && st.active.is_none());
        assert_eq!(st.counters.completed, 60);
    }

    #[test]
    fn incremental_slo_equals_a_from_scratch_rebuild() {
        let mut st = State::new();
        // A fixed stream with repeats, sub-millisecond and multi-second
        // latencies.
        let mut x = 12_345u64;
        let lats: Vec<Duration> = (0..3_000)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                Duration::from_micros(
                    (x >> 33) % 2_500_000 / if x.is_multiple_of(7) { 1_000 } else { 1 },
                )
            })
            .collect();
        for &l in &lats {
            st.slo.record(l);
            st.counters.completed += 1;
        }
        let (got, _) = SloSnapshot::of(&st).registry();

        // The rebuild every publish used to do.
        let mut sorted = lats.clone();
        sorted.sort_unstable();
        let mut want = MetricsRegistry::new();
        for l in &sorted {
            want.observe("service.job_latency_ms", l.as_secs_f64() * 1e3);
        }
        for (name, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
            assert_eq!(
                got.counter(&format!("service.job_latency_{name}_ms")),
                Some(percentile(&sorted, p).as_millis() as u64),
                "{name}"
            );
        }
        assert_eq!(got.counter("service.jobs_completed"), Some(3_000));
        let (g, w) = (
            got.histogram("service.job_latency_ms").unwrap(),
            want.histogram("service.job_latency_ms").unwrap(),
        );
        assert_eq!(g.cumulative_buckets(), w.cumulative_buckets());
        assert_eq!((g.count, g.min, g.max), (w.count, w.min, w.max));
        assert!(
            (g.sum - w.sum).abs() <= 1e-9 * w.sum,
            "{} vs {}",
            g.sum,
            w.sum
        );
    }
}
