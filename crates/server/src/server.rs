//! The accept loop, per-connection threads, and graceful shutdown.
//!
//! The listener runs nonblocking and polls two stop signals between
//! accepts: the handle's programmatic shutdown flag and the process-level
//! SIGTERM flag ([`signal`]).  On either, the loop stops accepting, drops
//! the listener (new connections are refused at the TCP layer), and waits
//! for the in-flight request count to reach zero before returning —
//! SIGTERM *drains*, it never cuts a response (or worse, a ledger append)
//! in half.
//!
//! Between polls the loop sleeps a pause drawn uniformly from
//! `[1.5, 6.5)` ms rather than a fixed period.  A fixed period phase-locks
//! closed-loop clients to the poll: a client that reconnects `τ` after the
//! loop last woke always waits the period minus `τ`, so its wait is set by
//! its own previous request, and it is served promptly only when that
//! request happened to end just before a poll.  With random pauses the wait
//! no longer depends on the client's timing.  The bounds are empirical: on
//! relbench's `serve_mixed` they keep the closed-loop request rate within
//! ~10% of a fixed 5 ms period, and the 1.5 ms floor keeps most short
//! requests from missing a pause and waiting out the next one.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::config::ServerConfig;
use crate::http;
use crate::routes;
use crate::store::Store;

/// Name of the file (inside the data dir) the server writes its bound
/// address to — how tests and scripts find an ephemeral port.
pub const ENDPOINT_FILE: &str = "endpoint";

/// SIGTERM plumbing: a process-wide flag the accept loop polls.
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGTERM_RECEIVED: AtomicBool = AtomicBool::new(false);

    /// Whether a SIGTERM has been delivered (always `false` until
    /// [`install_sigterm_handler`] has been called).
    pub fn sigterm_received() -> bool {
        SIGTERM_RECEIVED.load(Ordering::SeqCst)
    }

    /// Installs a SIGTERM handler that sets the flag.  Only the `dpsyn-serve`
    /// binary calls this; embedding [`crate::start`] in a larger process
    /// (e.g. the test suite) leaves signal disposition alone.
    ///
    /// The handler body is a single atomic store — async-signal-safe.
    #[cfg(unix)]
    #[allow(unsafe_code)]
    pub fn install_sigterm_handler() {
        const SIGTERM: i32 = 15;
        extern "C" fn on_sigterm(_: i32) {
            SIGTERM_RECEIVED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            // libc's simple signal-disposition call; declared by hand
            // because the build is offline (no libc crate).
            fn signal(signum: i32, handler: usize) -> usize;
        }
        unsafe {
            signal(SIGTERM, on_sigterm as *const () as usize);
        }
    }

    /// No-op off Unix.
    #[cfg(not(unix))]
    pub fn install_sigterm_handler() {}
}

/// A running server: its bound address and the knobs to stop it.
pub struct ServerHandle {
    /// The address actually bound (resolves port 0).
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    inflight: Arc<AtomicUsize>,
    join: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// Requests shutdown and blocks until in-flight requests have drained
    /// and the accept loop has exited.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.join.join();
    }

    /// Number of requests currently being served.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Blocks until the accept loop exits (e.g. after SIGTERM).
    pub fn wait(self) {
        let _ = self.join.join();
    }
}

/// Decrements the in-flight counter even when the connection thread
/// panics, so a handler bug can never wedge the drain.
struct InflightGuard(Arc<AtomicUsize>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Opens the store (replaying the ledger), binds the listener, writes the
/// `endpoint` file, and spawns the accept loop.
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    let store =
        Store::open(&config.data_dir).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let recovery = store.recovery().clone();
    if recovery.truncated_bytes > 0 || recovery.resolved_intents > 0 {
        eprintln!(
            "dpsyn-serve: ledger recovery: {} records, {} torn bytes truncated, {} pending intents conservatively committed",
            recovery.records, recovery.truncated_bytes, recovery.resolved_intents
        );
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    std::fs::write(config.data_dir.join(ENDPOINT_FILE), addr.to_string())?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let inflight = Arc::new(AtomicUsize::new(0));
    let store = Arc::new(store);

    let join = {
        let shutdown = shutdown.clone();
        let inflight = inflight.clone();
        std::thread::spawn(move || accept_loop(listener, store, config, shutdown, inflight))
    };

    Ok(ServerHandle {
        addr,
        shutdown,
        inflight,
        join,
    })
}

fn accept_loop(
    listener: TcpListener,
    store: Arc<Store>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    inflight: Arc<AtomicUsize>,
) {
    let mut pauses = IdlePauses::new();
    loop {
        if shutdown.load(Ordering::SeqCst) || signal::sigterm_received() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Counted in the acceptor, before the thread exists: a
                // SIGTERM arriving between accept and spawn still sees the
                // request as in flight.
                inflight.fetch_add(1, Ordering::SeqCst);
                let guard = InflightGuard(inflight.clone());
                let store = store.clone();
                let config = config.clone();
                std::thread::spawn(move || {
                    let _guard = guard;
                    serve_connection(stream, &store, &config);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(pauses.next_pause());
            }
            Err(_) => {
                // Transient accept errors (e.g. aborted connections): keep
                // serving.
                std::thread::sleep(pauses.next_pause());
            }
        }
    }
    // Stop accepting immediately; drain what is already in flight.
    drop(listener);
    while inflight.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The shortest pause between polls of an idle listener.
const PAUSE_MIN: Duration = Duration::from_micros(1_500);

/// The width of the range pauses are drawn from.
const PAUSE_SPAN: Duration = Duration::from_millis(5);

/// The accept loop's pauses: uniform in `[PAUSE_MIN, PAUSE_MIN +
/// PAUSE_SPAN)`, from SplitMix64 over a per-loop random seed (see the module
/// docs).
struct IdlePauses(u64);

impl IdlePauses {
    fn new() -> Self {
        use std::hash::{BuildHasher, Hasher};
        IdlePauses(
            std::collections::hash_map::RandomState::new()
                .build_hasher()
                .finish(),
        )
    }

    fn next_pause(&mut self) -> Duration {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // The top 53 bits as a fraction in [0, 1).
        PAUSE_MIN + PAUSE_SPAN.mul_f64((z >> 11) as f64 / (1u64 << 53) as f64)
    }
}

fn serve_connection(mut stream: TcpStream, store: &Store, config: &ServerConfig) {
    let _ = stream.set_read_timeout(Some(config.io_timeout));
    let _ = stream.set_write_timeout(Some(config.io_timeout));
    let request =
        match http::read_request(&mut stream, config.max_head_bytes, config.max_body_bytes) {
            Ok(r) => r,
            Err(e) => {
                let body = crate::wire::ApiError::new(e.status, "http", e.detail).body();
                http::respond(&mut stream, e.status, &body.to_json());
                // Drain what the client is still sending (bounded) before
                // closing: closing with unread data makes the kernel RST
                // the connection, discarding the error response in flight.
                use std::io::Read;
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                let mut sink = [0u8; 4096];
                let mut drained = 0usize;
                while drained < (4 << 20) {
                    match stream.read(&mut sink) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => drained += n,
                    }
                }
                return;
            }
        };
    let (status, body) = routes::dispatch(
        store,
        &request.method,
        &request.path,
        &request.body,
        config.exec_timeout,
    );
    http::respond(&mut stream, status, &body.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_pauses_are_spread_evenly_over_their_range() {
        let mut pauses = IdlePauses::new();
        let drawn: Vec<Duration> = (0..4000).map(|_| pauses.next_pause()).collect();
        let quarter = PAUSE_SPAN / 4;
        for k in 0..4u32 {
            let (lo, hi) = (PAUSE_MIN + quarter * k, PAUSE_MIN + quarter * (k + 1));
            let n = drawn.iter().filter(|&&p| p >= lo && p < hi).count();
            assert!((700..1300).contains(&n), "{n} pauses in [{lo:?}, {hi:?})");
        }
        assert!(drawn
            .iter()
            .all(|&p| p >= PAUSE_MIN && p < PAUSE_MIN + PAUSE_SPAN));
    }
}
