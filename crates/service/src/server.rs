//! The core both services run: one JSON-lines server loop, one store of
//! `<kind>-<id>.json` records, one bounded window of them in memory, and
//! one lock discipline. The daemon and the coordinator each add only
//! their op table and what runs behind it (the job runner, the
//! scheduler).

use crate::protocol::{err_response, send_lines, ENDPOINT_FILE};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;
use vcfr_bench::write_atomic;
use vcfr_obs::{parse_json, Json};

/// Locks `m`, taking the guard out of a [`PoisonError`]: a handler that
/// panics while it holds the job registry or the fleet state costs its
/// own connection, not every later request. That is sound because every
/// update of either is a field assignment or a map insert or remove, so
/// a panic between two of them leaves a state the service can go on
/// from.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`] under the discipline of [`lock`].
pub(crate) fn wait<'a, T>(
    changed: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    changed.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner)
}

/// Where record `id` of `kind` lives: `<dir>/<kind>-<id>.json`.
pub(crate) fn record_file(dir: &Path, kind: &str, id: u64) -> PathBuf {
    dir.join(format!("{kind}-{id}.json"))
}

/// Writes record `id` of `kind` atomically: an object holding `id`, then
/// the fields `fill` sets.
pub(crate) fn write_record(
    dir: &Path,
    kind: &str,
    id: u64,
    fill: impl FnOnce(&mut Json),
) -> std::io::Result<()> {
    let mut doc = Json::obj();
    doc.set("id", Json::U64(id));
    fill(&mut doc);
    write_atomic(&record_file(dir, kind, id), doc.pretty().as_bytes())
}

/// Reads every record of `kind` in `dir`. Returns those that parse, in id
/// order, and the first id past every record file on disk: an id is
/// never handed out again, even when its record is one the caller
/// refuses.
pub(crate) fn read_records(dir: &Path, kind: &str) -> (Vec<(u64, Json)>, u64) {
    let mut records = Vec::new();
    let mut next_id = 1;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let id = name.to_str().and_then(|n| {
            n.strip_prefix(kind)?.strip_prefix('-')?.strip_suffix(".json")?.parse::<u64>().ok()
        });
        let Some(id) = id else { continue };
        next_id = next_id.max(id.saturating_add(1));
        let text = std::fs::read_to_string(entry.path());
        if let Some(doc) = text.ok().and_then(|t| parse_json(&t).ok()) {
            records.push((id, doc));
        }
    }
    records.sort_unstable_by_key(|&(id, _)| id);
    (records, next_id)
}

/// A service's records by id, in memory: every open one plus the `KEEP`
/// that ended most recently. An older ended record lives on disk only
/// and is counted by how it ended, so totals stay exact however long the
/// service runs.
pub(crate) struct Retained<T, const KEEP: usize> {
    /// The records in memory.
    pub(crate) live: BTreeMap<u64, T>,
    /// The ended records in `live`, in the order they ended, and whether
    /// each succeeded.
    ended: VecDeque<(u64, bool)>,
    /// Ended records that have left `live`: `[succeeded, failed]`.
    pub(crate) dropped: [u64; 2],
}

impl<T, const KEEP: usize> Default for Retained<T, KEEP> {
    fn default() -> Self {
        Retained { live: BTreeMap::new(), ended: VecDeque::new(), dropped: [0; 2] }
    }
}

impl<T, const KEEP: usize> Retained<T, KEEP> {
    /// Notes that record `id` has ended and its file on disk is final,
    /// then drops the oldest ended records beyond `KEEP` from memory.
    pub(crate) fn retire(&mut self, id: u64, succeeded: bool) {
        self.ended.push_back((id, succeeded));
        while self.ended.len() > KEEP {
            let Some((old, ok)) = self.ended.pop_front() else { break };
            if self.live.remove(&old).is_some() {
                self.dropped[usize::from(!ok)] += 1;
            }
        }
    }

    /// Every record held so far, the dropped ones included.
    pub(crate) fn total(&self) -> u64 {
        self.live.len() as u64 + self.dropped[0] + self.dropped[1]
    }
}

/// Serves JSON-lines clients on `listener` until `stopping` is raised.
/// Writes `<dir>/endpoint` before it accepts, as the last step of a
/// service's start, so once the file exists clients may connect. Runs
/// each connection on a thread of its own and passes every request to
/// `handle`. `handle` returns the response line, or
/// `None` when it wrote its own lines (a `watch` stream, a `shutdown`
/// acknowledgement); an error closes the connection. Once the stop flag
/// is up, runs `wind_down` and only then removes the endpoint file.
pub(crate) fn serve_lines<H>(
    dir: &Path,
    listener: TcpListener,
    stopping: Arc<AtomicBool>,
    handle: H,
    wind_down: impl FnOnce(),
) -> std::io::Result<()>
where
    H: Fn(&Json, &mut TcpStream) -> std::io::Result<Option<Json>> + Send + Sync + 'static,
{
    let addr = listener.local_addr()?;
    write_atomic(&dir.join(ENDPOINT_FILE), format!("{addr}\n").as_bytes())?;
    let handle = Arc::new(handle);
    for conn in listener.incoming() {
        if stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // A `watch` stream answers one request with many writes, and the
        // client sends nothing while it reads them. Under Nagle each
        // wakeup's write after the first would wait for the client's
        // delayed ACK (about 40 ms on Linux).
        let _ = stream.set_nodelay(true);
        let (handle, stopping) = (Arc::clone(&handle), Arc::clone(&stopping));
        std::thread::spawn(move || serve_conn(stream, &*handle, &stopping, addr));
    }
    wind_down();
    let _ = std::fs::remove_file(dir.join(ENDPOINT_FILE));
    Ok(())
}

/// Serves one connection's requests in order, on the connection's own
/// thread.
fn serve_conn<H>(stream: TcpStream, handle: &H, stopping: &AtomicBool, addr: SocketAddr)
where
    H: Fn(&Json, &mut TcpStream) -> std::io::Result<Option<Json>>,
{
    let Ok(reader) = stream.try_clone() else { return };
    let mut writer = stream;
    for line in BufReader::new(reader).lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        let sent = match parse_json(&line) {
            Err(e) => send_lines(&mut writer, [&err_response(&format!("malformed request: {e}"))]),
            Ok(req) => match handle(&req, &mut writer) {
                Ok(Some(resp)) => send_lines(&mut writer, [&resp]),
                Ok(None) => Ok(()),
                Err(e) => Err(e),
            },
        };
        if stopping.load(Ordering::SeqCst) {
            // Wake the accept loop so the service can wind down.
            let _ = TcpStream::connect(addr);
            return;
        }
        if sent.is_err() {
            return;
        }
    }
}
