//! An app served without replication loses a shard thread. The server must
//! stay up around it: the app's `Finalize` is answered at once with a
//! `SHARD_FAILED` error naming the shard and its panic, the app restarts
//! on a fresh cluster, another app on the same server keeps answering, and
//! `shutdown` returns and reports the death.
//!
//! Every request runs on a helper thread and is waited for through a
//! channel with a deadline, so a server that wedges fails the test instead
//! of hanging it.

use std::sync::mpsc;
use std::time::Duration;

use datagen::{Tuple, UniformGenerator};
use ditto_apps::HistoApp;
use ditto_core::ArchConfig;
use ditto_serve::{ServeConfig, ShardFault};
use ditto_wire::frame::error_code;
use ditto_wire::{
    AppRegistry, Backend, Response, ShutdownReport, WireClient, WireError, WireServer,
    WireServerConfig,
};

const FAULTY: u16 = 7;
const HEALTHY: u16 = 8;
const SHARDS: usize = 2;
/// The bound on the `Finalize` answer.
const PROMPT: Duration = Duration::from_secs(1);
/// The bound on every other step: generous for a loaded host, yet far
/// from a hang.
const SLOW: Duration = Duration::from_secs(30);

/// Runs `f` on its own thread and waits at most `limit` for its result;
/// a thread still blocked past the deadline is left behind.
fn bounded<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(out) => {
            helper.join().expect("helper thread sent, then panicked");
            out
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(helper.join().expect_err("helper exited without sending"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: no answer within {limit:?}"),
    }
}

/// [`bounded`] for one client call; hands the client back.
fn call<T: Send + 'static>(
    mut client: WireClient,
    limit: Duration,
    what: &str,
    f: impl FnOnce(&mut WireClient) -> T + Send + 'static,
) -> (WireClient, T) {
    bounded(limit, what, move || {
        let out = f(&mut client);
        (client, out)
    })
}

fn done_tuples(client: &mut WireClient, app: u16, batch: &[Tuple]) -> u64 {
    match client.submit_wait(app, batch).expect("submit") {
        Response::Done { tuples, .. } => tuples,
        other => panic!("unexpected response: {other:?}"),
    }
}

fn unhealed_shard_death_is_answered_not_hung(backend: Backend) {
    let app = HistoApp::new(256, 8);
    let arch = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
    let faulty = ServeConfig::new(SHARDS, arch.clone()).with_fault(ShardFault {
        shard: 1,
        after_batches: 1,
    });
    let mut registry = AppRegistry::new();
    registry.register(FAULTY, app.clone(), faulty);
    registry.register(HEALTHY, app, ServeConfig::new(SHARDS, arch));
    let config = WireServerConfig::new().with_backend(backend);
    let server = WireServer::bind("127.0.0.1:0", registry, config).expect("bind");
    let client = WireClient::connect(server.local_addr()).expect("connect");
    // Enough distinct keys that both shards get part of every batch.
    let batch: Vec<Tuple> = UniformGenerator::new(1 << 16, 9).take_vec(512);
    let n = batch.len() as u64;

    // Shard 1 serves its part of the first batch, then dies.
    let b = batch.clone();
    let (client, tuples) = call(client, SLOW, "first submit", move |c| {
        done_tuples(c, FAULTY, &b)
    });
    assert_eq!(tuples, n);
    let (client, ()) = call(client, SLOW, "death notice", |c| loop {
        let snap = c.metrics(FAULTY).expect("metrics");
        let failed = snap
            .get("ditto_cluster_shards_failed", &[("app", "7")])
            .expect("failed-shard gauge")
            .value
            .scalar();
        if failed == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    });

    let (client, finalized) = call(client, PROMPT, "finalize", |c| c.finalize(FAULTY));
    match finalized {
        Err(WireError::Server { code, message }) => {
            assert_eq!(code, error_code::SHARD_FAILED);
            assert!(message.contains("shard 1"), "shard unnamed: {message}");
            assert!(
                message.contains("DITTO_KILL_SHARD"),
                "panic message lost: {message}"
            );
        }
        other => panic!("{backend:?}: finalize answered {other:?}"),
    }

    // The other app still serves, Done and Stats alike.
    let b = batch.clone();
    let (client, tuples) = call(client, SLOW, "healthy submit", move |c| {
        done_tuples(c, HEALTHY, &b)
    });
    assert_eq!(tuples, n);
    let (client, stats) = call(client, SLOW, "healthy stats", |c| c.stats(HEALTHY));
    assert_eq!(stats.expect("stats").batches_completed, 1);

    // The failed app restarted on a fresh cluster.
    let b = batch.clone();
    let (client, tuples) = call(client, SLOW, "restarted submit", move |c| {
        done_tuples(c, FAULTY, &b)
    });
    assert_eq!(tuples, n);

    // The fresh cluster's shard 1 dies again after that batch; shutdown
    // returns and reports it.
    drop(client);
    let report: ShutdownReport = bounded(SLOW, "shutdown", move || server.shutdown());
    assert_eq!(report.per_app.len(), 2);
    assert_eq!(report.shard_failures.len(), 1, "{backend:?}: {report:?}");
    let (app, failure) = &report.shard_failures[0];
    assert_eq!((*app, failure.shard), (FAULTY, 1));
}

#[test]
fn unhealed_shard_death_on_epoll() {
    if cfg!(target_os = "linux") {
        unhealed_shard_death_is_answered_not_hung(Backend::Epoll);
    }
}

#[test]
fn unhealed_shard_death_on_poll() {
    unhealed_shard_death_is_answered_not_hung(Backend::Poll);
}
