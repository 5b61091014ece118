//! A blocking JSON-lines client for the daemon, used by the `vcfr
//! submit` / `vcfr jobs` subcommands and the smoke tests.

use crate::protocol::{hex_encode, send_lines, ServiceError, ENDPOINT_FILE};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Duration;
use vcfr_bench::RunSpec;
use vcfr_obs::{parse_json, Json};

/// One connection to a running daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects via the endpoint file in the service state directory.
    /// Every call on the connection may wait indefinitely (a `watch` can
    /// legitimately go seconds between events).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] when no daemon has published an
    /// endpoint there; [`ServiceError::Io`] when the connect fails
    /// (e.g. a stale endpoint file after a hard kill).
    pub fn connect(dir: &Path) -> Result<Client, ServiceError> {
        Client::open(dir, None)
    }

    /// [`Client::connect`], but the connect and every later read and
    /// write on the connection give up after `timeout` with
    /// [`ServiceError::Io`]: a peer that accepts but never answers (a
    /// stopped or deadlocked daemon) cannot block the caller forever.
    ///
    /// # Errors
    ///
    /// As [`Client::connect`], plus [`ServiceError::Io`] when the connect
    /// times out.
    pub fn connect_within(dir: &Path, timeout: Duration) -> Result<Client, ServiceError> {
        Client::open(dir, Some(timeout))
    }

    fn open(dir: &Path, timeout: Option<Duration>) -> Result<Client, ServiceError> {
        let path = dir.join(ENDPOINT_FILE);
        let text = std::fs::read_to_string(&path).map_err(|_| {
            ServiceError::Protocol(format!(
                "no service endpoint at {} (is `vcfr serve` running?)",
                path.display()
            ))
        })?;
        let addr: SocketAddr = text.trim().parse().map_err(|_| {
            ServiceError::Protocol(format!("bad endpoint {:?} in {}", text.trim(), path.display()))
        })?;
        let stream = match timeout {
            None => TcpStream::connect(addr)?,
            Some(t) => TcpStream::connect_timeout(&addr, t)?,
        };
        // Socket options, so the reader's clone below shares them.
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: stream })
    }

    /// Sends one request line and reads one response line.
    fn roundtrip(&mut self, req: &Json) -> Result<Json, ServiceError> {
        send_lines(&mut self.writer, [req])?;
        self.read_line()
    }

    fn read_line(&mut self) -> Result<Json, ServiceError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ServiceError::Protocol("daemon closed the connection".to_string()));
        }
        Ok(parse_json(&line)?)
    }

    /// Checks a `{"ok": …}` response, surfacing the daemon's error.
    fn expect_ok(resp: Json) -> Result<Json, ServiceError> {
        match resp.get("ok") {
            Some(Json::Bool(true)) => Ok(resp),
            _ => Err(ServiceError::Protocol(
                resp.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("daemon refused the request")
                    .to_string(),
            )),
        }
    }

    fn op(name: &str) -> Json {
        let mut j = Json::obj();
        j.set("op", Json::Str(name.to_string()));
        j
    }

    /// Liveness probe; returns the daemon's job count.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures.
    pub fn ping(&mut self) -> Result<u64, ServiceError> {
        let resp = Self::expect_ok(self.roundtrip(&Self::op("ping"))?)?;
        Ok(resp.get("jobs").and_then(Json::as_u64).unwrap_or(0))
    }

    /// Submits a job; returns its id.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] when the daemon refuses it (invalid
    /// spec, or the bounded queue is full).
    pub fn submit(&mut self, spec: &RunSpec) -> Result<u64, ServiceError> {
        self.submit_with(spec, None)
    }

    /// Submits a job, optionally seeding it with a checkpoint to resume
    /// from (how the fleet coordinator re-dispatches a lost job onto
    /// another worker); returns its id.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] when the daemon refuses it (invalid
    /// spec, a rejected checkpoint, or the bounded queue is full).
    pub fn submit_with(
        &mut self,
        spec: &RunSpec,
        ckpt: Option<&[u8]>,
    ) -> Result<u64, ServiceError> {
        let mut req = Self::op("submit");
        req.set("job", spec.to_json());
        if let Some(bytes) = ckpt {
            req.set("ckpt", Json::Str(hex_encode(bytes)));
        }
        let resp = Self::expect_ok(self.roundtrip(&req)?)?;
        resp.get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| ServiceError::Protocol("submit response lacks an id".to_string()))
    }

    /// One job's status plus — once it is done — its canonical manifest
    /// as `(file_name, text)`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] for unknown ids or an unreadable
    /// manifest.
    pub fn fetch(&mut self, id: u64) -> Result<(Json, Option<(String, String)>), ServiceError> {
        let mut req = Self::op("fetch");
        req.set("id", Json::U64(id));
        let mut resp = Self::expect_ok(self.roundtrip(&req)?)?;
        let job = resp
            .take("job")
            .ok_or_else(|| ServiceError::Protocol("fetch response lacks a job".to_string()))?;
        let manifest = match (resp.take("file"), resp.take("manifest")) {
            (Some(Json::Str(f)), Some(Json::Str(m))) => Some((f, m)),
            _ => None,
        };
        Ok((job, manifest))
    }

    /// Registers a worker daemon (identified by its state directory)
    /// with a fleet coordinator; returns the worker id. Idempotent: the
    /// same directory keeps its id, and re-registering revives a worker
    /// the coordinator had declared lost.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures.
    pub fn register(&mut self, worker_dir: &Path, slots: u64) -> Result<u64, ServiceError> {
        let mut req = Self::op("register");
        req.set("dir", Json::Str(worker_dir.display().to_string()));
        req.set("slots", Json::U64(slots));
        let resp = Self::expect_ok(self.roundtrip(&req)?)?;
        resp.get("worker")
            .and_then(Json::as_u64)
            .ok_or_else(|| ServiceError::Protocol("register response lacks a worker id".to_string()))
    }

    /// A fleet coordinator's `status` body: worker liveness and the
    /// chunk table (see `docs/fleet.md` for the schema).
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures.
    pub fn fleet_status(&mut self) -> Result<Json, ServiceError> {
        Self::expect_ok(self.roundtrip(&Self::op("status"))?)?
            .take("fleet")
            .ok_or_else(|| ServiceError::Protocol("status response lacks a fleet body".to_string()))
    }

    /// Lists the jobs the daemon holds in memory, as status objects: its
    /// open jobs and its most recently finished ones.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures.
    pub fn jobs(&mut self) -> Result<Vec<Json>, ServiceError> {
        match Self::expect_ok(self.roundtrip(&Self::op("jobs"))?)?.take("jobs") {
            Some(Json::Arr(jobs)) => Ok(jobs),
            _ => Ok(Vec::new()),
        }
    }

    /// Streams status events for `id`, invoking `on_event` per line,
    /// until the daemon sends the `end` event.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures.
    pub fn watch(
        &mut self,
        id: u64,
        mut on_event: impl FnMut(&Json),
    ) -> Result<(), ServiceError> {
        self.watch_while(id, |line| {
            on_event(line);
            true
        })
        .map(drop)
    }

    /// [`Client::watch`], but it stops reading as soon as `on_event`
    /// returns `false`. Returns whether the stream reached `end`.
    pub(crate) fn watch_while(
        &mut self,
        id: u64,
        mut on_event: impl FnMut(&Json) -> bool,
    ) -> Result<bool, ServiceError> {
        let mut req = Self::op("watch");
        req.set("id", Json::U64(id));
        send_lines(&mut self.writer, [&req])?;
        loop {
            let line = self.read_line()?;
            if let Some(err) = line.get("error").and_then(Json::as_str) {
                return Err(ServiceError::Protocol(err.to_string()));
            }
            if line.get("event").and_then(Json::as_str) == Some("end") {
                return Ok(true);
            }
            if !on_event(&line) {
                return Ok(false);
            }
        }
    }

    /// The daemon-wide metrics object: queue occupancy, per-worker
    /// utilization, job counts by phase, throughput totals, and the
    /// job-latency histogram (see `docs/service.md` for the schema).
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures.
    pub fn metrics(&mut self) -> Result<Json, ServiceError> {
        Self::expect_ok(self.roundtrip(&Self::op("metrics"))?)?
            .take("metrics")
            .ok_or_else(|| ServiceError::Protocol("metrics response lacks a body".to_string()))
    }

    /// Asks the daemon to checkpoint everything and exit.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures.
    pub fn shutdown(&mut self) -> Result<(), ServiceError> {
        Self::expect_ok(self.roundtrip(&Self::op("shutdown"))?)?;
        Ok(())
    }

    /// Asks a fleet coordinator to exit; `stop_workers` also shuts down
    /// every registered worker daemon.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures.
    pub fn shutdown_fleet(&mut self, stop_workers: bool) -> Result<(), ServiceError> {
        let mut req = Self::op("shutdown");
        req.set("workers", Json::Bool(stop_workers));
        Self::expect_ok(self.roundtrip(&req)?)?;
        Ok(())
    }
}
