//! The two driving shells around [`FrontendCore`]: the inline,
//! deterministic [`Frontend`] and the threaded [`AsyncFrontend`].

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::core::{FrontendConfig, FrontendCore, FrontendRequest, FrontendResponse, JobId};
use crate::error::FrontendError;
use crate::tenant::{TenantDigest, TenantId, TenantQuota};
use crate::timeline::{frontend_timeline_jsonl, tenant_events, FrontendEvent};
use twoface_net::MetricsRegistry;
use twoface_serve::SpmmService;

/// The inline multi-tenant front-end: the caller drives scheduling
/// explicitly ([`Frontend::poll`] / [`Frontend::drain`]), so every decision
/// — admission, fairness, deadline-pressure closes — replays exactly from
/// the same submission sequence. This is the mode the acceptance tests and
/// the bench use; the threaded [`AsyncFrontend`] wraps the same core.
pub struct Frontend {
    core: FrontendCore,
    service: SpmmService,
}

impl Frontend {
    /// Wraps a service (matrices must already be registered: the front-end
    /// snapshots their shapes for service-free admission checks).
    pub fn new(service: SpmmService, config: FrontendConfig) -> Frontend {
        let core = FrontendCore::new(&service, config);
        Frontend { core, service }
    }

    /// Registers a tenant under `name` with `quota`.
    ///
    /// # Errors
    ///
    /// [`FrontendError::TenantExists`] for a duplicate name.
    pub fn register_tenant(
        &mut self,
        name: &str,
        quota: TenantQuota,
    ) -> Result<TenantId, FrontendError> {
        self.core.register_tenant(name, quota)
    }

    /// Submits a request for `tenant` through admission control.
    ///
    /// # Errors
    ///
    /// [`FrontendError::Invalid`] for malformed requests,
    /// [`FrontendError::Rejected`] when a backpressure rung fires.
    pub fn submit(
        &mut self,
        tenant: TenantId,
        request: FrontendRequest,
    ) -> Result<JobId, FrontendError> {
        self.core.submit(tenant, request)
    }

    /// One scheduling pass: closes every group that is full, under
    /// deadline pressure, or aged out, executes the closed batches, and
    /// returns their responses (empty when nothing closed).
    pub fn poll(&mut self) -> Vec<FrontendResponse> {
        self.run(false)
    }

    /// Flushes the queue: closes and executes everything pending.
    pub fn drain(&mut self) -> Vec<FrontendResponse> {
        self.run(true)
    }

    fn run(&mut self, flush: bool) -> Vec<FrontendResponse> {
        let mut responses = Vec::new();
        let batches = self.core.poll(&self.service, flush);
        for batch in batches {
            let served = self.service.execute(batch.requests());
            responses.extend(self.core.complete(batch, served, &self.service));
        }
        responses
    }

    /// Begins a graceful drain without consuming the front-end: new
    /// submissions are rejected with
    /// [`RejectReason::Draining`](crate::RejectReason::Draining) while
    /// everything already queued stays completable via [`Frontend::drain`].
    pub fn begin_drain(&mut self) {
        self.core.set_draining(true);
    }

    /// Graceful shutdown: refuses new work, completes everything queued,
    /// and returns the service (warm cache intact) with the final
    /// responses.
    pub fn shutdown(mut self) -> (SpmmService, Vec<FrontendResponse>) {
        self.core.set_draining(true);
        let responses = self.run(true);
        (self.service, responses)
    }

    /// Requests admitted but not yet handed to an execution.
    pub fn pending(&self) -> usize {
        self.core.pending()
    }

    /// The backing service (metrics, timeline, cache stats).
    pub fn service(&self) -> &SpmmService {
        &self.service
    }

    /// The front-end's own counters and sketches (global and per-tenant
    /// labeled series).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.core.metrics()
    }

    /// The merged front-end timeline.
    pub fn timeline(&self) -> &[FrontendEvent] {
        self.core.events()
    }

    /// The merged timeline as JSONL.
    pub fn timeline_jsonl(&self) -> String {
        frontend_timeline_jsonl(self.core.events())
    }

    /// One tenant's timeline slice as JSONL (its own events plus the
    /// session-wide events covering its jobs). `None` for unknown tenants.
    pub fn tenant_timeline_jsonl(&self, tenant: &str) -> Option<String> {
        let jobs = self.core.jobs_of(tenant)?;
        let events = tenant_events(self.core.events(), tenant, jobs);
        let mut out = String::new();
        for e in events {
            out.push_str(&serde_json::to_string(e).expect("frontend events serialize"));
            out.push('\n');
        }
        Some(out)
    }

    /// Registered tenant names, in registration order.
    pub fn tenants(&self) -> Vec<String> {
        self.core.tenant_names()
    }

    /// A tenant's session summary. `None` for unknown tenants.
    pub fn tenant_digest(&self, tenant: &str) -> Option<TenantDigest> {
        self.core.tenant_digest(tenant)
    }
}

struct TicketCell {
    slot: Mutex<Option<Result<FrontendResponse, FrontendError>>>,
    ready: Condvar,
}

impl TicketCell {
    fn fulfill(&self, outcome: Result<FrontendResponse, FrontendError>) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(outcome);
        self.ready.notify_all();
    }
}

/// A pending response: one per admitted [`AsyncFrontend`] submission.
pub struct Ticket {
    job: JobId,
    cell: Arc<TicketCell>,
}

impl Ticket {
    /// The admitted job's id.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// Blocks until the scheduler completes the job.
    ///
    /// # Errors
    ///
    /// [`FrontendError::Disconnected`] if the scheduler thread died before
    /// answering; execution failures come back inside the response.
    pub fn wait(self) -> Result<FrontendResponse, FrontendError> {
        let mut slot = self.cell.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self.cell.ready.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct SharedState {
    core: FrontendCore,
    tickets: HashMap<u64, Arc<TicketCell>>,
    stop: bool,
    dead: bool,
}

struct Shared {
    state: Mutex<SharedState>,
    work: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, SharedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Fulfills every outstanding ticket with `Disconnected` if the scheduler
/// thread unwinds, so no producer blocks forever on a dead queue.
struct SchedulerGuard(Arc<Shared>);

impl Drop for SchedulerGuard {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.dead = true;
        for (_, cell) in state.tickets.drain() {
            cell.fulfill(Err(FrontendError::Disconnected));
        }
        self.0.work.notify_all();
    }
}

/// The threaded multi-tenant front-end: producers submit from any thread
/// through cloneable [`TenantHandle`]s and block on [`Ticket`]s; a
/// dedicated scheduler thread owns the [`SpmmService`] exclusively and
/// drives the same policy core as the inline [`Frontend`]. Admission and
/// accounting happen under a short state lock; executions run outside it,
/// so producers keep submitting while a batch computes.
///
/// Responses keep the bit-identity contract — batching and interleaving
/// affect *when* a request completes, never its bits. Scheduling itself
/// (which requests share a batch) depends on thread timing here; use
/// [`Frontend`] when a replayable schedule matters.
pub struct AsyncFrontend {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<SpmmService>>,
}

impl AsyncFrontend {
    /// Spawns the scheduler thread over `service` (matrices must already
    /// be registered).
    pub fn spawn(service: SpmmService, config: FrontendConfig) -> AsyncFrontend {
        let core = FrontendCore::new(&service, config);
        let shared = Arc::new(Shared {
            state: Mutex::new(SharedState {
                core,
                tickets: HashMap::new(),
                stop: false,
                dead: false,
            }),
            work: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("twoface-frontend".into())
            .spawn(move || scheduler(thread_shared, service))
            .expect("spawn frontend scheduler");
        AsyncFrontend { shared, worker: Some(worker) }
    }

    /// Registers a tenant and returns its submission handle.
    ///
    /// # Errors
    ///
    /// [`FrontendError::TenantExists`] for a duplicate name,
    /// [`FrontendError::Disconnected`] after the scheduler died.
    pub fn register_tenant(
        &self,
        name: &str,
        quota: TenantQuota,
    ) -> Result<TenantHandle, FrontendError> {
        let mut state = self.shared.lock();
        if state.dead {
            return Err(FrontendError::Disconnected);
        }
        let tenant = state.core.register_tenant(name, quota)?;
        Ok(TenantHandle { shared: Arc::clone(&self.shared), tenant })
    }

    /// Looks up an existing tenant's handle by name.
    ///
    /// # Errors
    ///
    /// [`FrontendError::UnknownTenant`] when no tenant has this name.
    pub fn tenant(&self, name: &str) -> Result<TenantHandle, FrontendError> {
        let state = self.shared.lock();
        match state.core.tenant_id(name) {
            Some(tenant) => Ok(TenantHandle { shared: Arc::clone(&self.shared), tenant }),
            None => Err(FrontendError::UnknownTenant { name: name.to_string() }),
        }
    }

    /// Graceful shutdown: stops admission, lets the scheduler flush every
    /// queued batch (each outstanding [`Ticket`] resolves), and returns
    /// the service together with the final core (metrics, timeline,
    /// digests) as an inline [`Frontend`] in drained state.
    pub fn shutdown(mut self) -> Frontend {
        {
            let mut state = self.shared.lock();
            state.stop = true;
        }
        self.shared.work.notify_all();
        let worker = self.worker.take().expect("scheduler joined once");
        let service = match worker.join() {
            Ok(service) => service,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        // The scheduler marked the shared state dead on exit, so live
        // TenantHandles get Disconnected; move the core out from under them.
        let mut core = std::mem::replace(
            &mut self.shared.lock().core,
            FrontendCore::new(&service, FrontendConfig::default()),
        );
        core.set_draining(true);
        Frontend { core, service }
    }
}

impl Drop for AsyncFrontend {
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            {
                let mut state = self.shared.lock();
                state.stop = true;
            }
            self.shared.work.notify_all();
            let _ = worker.join();
        }
    }
}

/// Cloneable, thread-safe submission handle of one tenant.
#[derive(Clone)]
pub struct TenantHandle {
    shared: Arc<Shared>,
    tenant: TenantId,
}

impl TenantHandle {
    /// Submits a request; on admission, returns the [`Ticket`] to wait on.
    ///
    /// # Errors
    ///
    /// Exactly [`Frontend::submit`]'s errors, plus
    /// [`FrontendError::Disconnected`] after the scheduler died.
    pub fn submit(&self, request: FrontendRequest) -> Result<Ticket, FrontendError> {
        let mut state = self.shared.lock();
        if state.dead {
            return Err(FrontendError::Disconnected);
        }
        let job = state.core.submit(self.tenant, request)?;
        let cell = Arc::new(TicketCell { slot: Mutex::new(None), ready: Condvar::new() });
        state.tickets.insert(job.id(), Arc::clone(&cell));
        drop(state);
        self.shared.work.notify_all();
        Ok(Ticket { job, cell })
    }

    /// Submits and blocks for the response — the one-call convenience.
    ///
    /// # Errors
    ///
    /// Everything [`TenantHandle::submit`] and [`Ticket::wait`] return.
    pub fn run(&self, request: FrontendRequest) -> Result<FrontendResponse, FrontendError> {
        self.submit(request)?.wait()
    }
}

/// The scheduler loop: wait for work, close ready batches under the lock,
/// execute them against the service outside it, book completions, fulfill
/// tickets.
fn scheduler(shared: Arc<Shared>, mut service: SpmmService) -> SpmmService {
    let _guard = SchedulerGuard(Arc::clone(&shared));
    loop {
        let batches = {
            let mut state = shared.lock();
            loop {
                let flush = state.stop;
                let batches = state.core.poll(&service, flush);
                if !batches.is_empty() {
                    break batches;
                }
                if state.stop && state.core.pending() == 0 {
                    return service;
                }
                // A short linger batches near-simultaneous arrivals; the
                // timeout (rather than a bare wait) also re-runs the poll
                // so aging and deadline pressure fire without new submits.
                state = shared
                    .work
                    .wait_timeout(state, Duration::from_millis(1))
                    .map(|(guard, _)| guard)
                    .unwrap_or_else(|e| e.into_inner().0);
            }
        };
        for batch in batches {
            let served = service.execute(batch.requests());
            let responses = {
                let mut state = shared.lock();
                state.core.complete(batch, served, &service)
            };
            let mut state = shared.lock();
            for response in responses {
                if let Some(cell) = state.tickets.remove(&response.job.id()) {
                    cell.fulfill(Ok(response));
                }
            }
        }
    }
}
