//! In-process daemons and fleet coordinators, started on their own
//! threads with a fresh state directory and stopped through the wire
//! protocol, exactly as a client would.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vcfr_service::{serve, serve_fleet, Client, FleetOptions, ServeOptions, ServiceError};

/// How long a daemon may take to publish its endpoint.
const START_TIMEOUT: Duration = Duration::from_secs(20);

/// A `vcfr serve` daemon running on a thread of this process.
pub struct Daemon {
    pub dir: PathBuf,
    handle: JoinHandle<Result<(), ServiceError>>,
}

/// A `vcfr fleet` coordinator plus its worker daemons.
pub struct Fleet {
    pub dir: PathBuf,
    handle: JoinHandle<Result<(), ServiceError>>,
    workers: Vec<Daemon>,
}

/// Connects once the endpoint file appears.
pub fn connect(dir: &Path) -> Result<Client, String> {
    let t = Instant::now();
    loop {
        match Client::connect(dir) {
            Ok(c) => return Ok(c),
            Err(e) if t.elapsed() > START_TIMEOUT => {
                return Err(format!("no endpoint in {}: {e}", dir.display()))
            }
            // Short naps: daemon start-up takes about a millisecond and
            // is part of `setup_s`.
            Err(_) => std::thread::sleep(Duration::from_micros(50)),
        }
    }
}

impl Daemon {
    /// Starts a daemon with default options except the state directory
    /// and the worker count, and waits until it answers.
    pub fn start(dir: PathBuf, workers: usize) -> Result<Daemon, String> {
        let opts = ServeOptions {
            dir: dir.clone(),
            workers,
            ..ServeOptions::default()
        };
        let handle = std::thread::spawn(move || serve(&opts));
        connect(&dir)?.ping().map_err(|e| e.to_string())?;
        Ok(Daemon { dir, handle })
    }

    /// Asks the daemon to exit and joins its thread.
    pub fn stop(self) -> Result<(), String> {
        connect(&self.dir)?.shutdown().map_err(|e| e.to_string())?;
        join(self.handle)
    }
}

impl Fleet {
    /// Starts a coordinator with default [`FleetOptions`] and `workers`
    /// one-worker daemons, each registered with one slot.
    pub fn start(dir: PathBuf, workers: usize) -> Result<Fleet, String> {
        let opts = FleetOptions {
            dir: dir.join("coordinator"),
            ..FleetOptions::default()
        };
        let coord = opts.dir.clone();
        let handle = std::thread::spawn(move || serve_fleet(&opts));
        let mut client = connect(&coord)?;
        let mut started = Vec::new();
        for w in 0..workers {
            let d = Daemon::start(dir.join(format!("worker{w}")), 1)?;
            client.register(&d.dir, 1).map_err(|e| e.to_string())?;
            started.push(d);
        }
        Ok(Fleet {
            dir: coord,
            handle,
            workers: started,
        })
    }

    /// Stops the coordinator and, through it, every worker daemon.
    pub fn stop(self) -> Result<(), String> {
        connect(&self.dir)?
            .shutdown_fleet(true)
            .map_err(|e| e.to_string())?;
        join(self.handle)?;
        for w in self.workers {
            join(w.handle)?;
        }
        Ok(())
    }

    /// The coordinator's merged manifest tree.
    pub fn manifests_dir(&self) -> PathBuf {
        self.dir.join("results").join("manifests")
    }
}

fn join(h: JoinHandle<Result<(), ServiceError>>) -> Result<(), String> {
    match h.join() {
        Ok(r) => r.map_err(|e| e.to_string()),
        Err(_) => Err("service thread panicked".to_string()),
    }
}
