//! Rounds that share laps: the front's side of [`crate::scan::Rotation`]
//! (see the parent module, "Shared laps").
//!
//! A round joins the sweep in progress at the next segment boundary, rides
//! one lap and leaves with its pages, so `R` overlapping rounds cost the host
//! about one lap between them, and none of them waits for more than one
//! segment pass before its own lap begins. A round that finds the rotation
//! idle rides alone, from segment 0 — the front-to-back sweep a round served
//! on the spot gets, through the same code.
//!
//! The front serves one [`Lap`] at a time: one rotation over one file of one
//! generation, so a lap never mixes generations. A lap knows only which
//! clients ride it; the loop thread keeps everything else — each client's
//! riding request and the frames behind it, the replay caches — and settles
//! each round, when its lap ends, through the one path every request takes,
//! so nothing a rider observes depends on who drove. The *driver* runs the
//! passes:
//!
//! * where the process has one CPU, or the file one segment, the loop thread
//!   is the driver: it takes every queued frame, runs one pass
//!   ([`Lap::turn`], every range of it on that thread alone) and looks at
//!   its queue again;
//! * otherwise a driver thread is started by the round that finds nobody
//!   driving and ends with the lap that leaves nobody aboard, so the loop
//!   keeps answering the small exchanges of every session while segments are
//!   swept. It keeps the [`Crew`] its passes hand their ranges to for as
//!   long as it lasts, picks up joins and leaves from the [`Inbox`] at every
//!   boundary, and reports to the loop's own queue every pass that ended
//!   somebody's lap.

use super::front::{GenEntry, ToServer};
use crate::error::PirError;
use crate::scan::{Crew, Ride, Rotation};
use crate::server::FileId;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// What one pass came to.
pub(crate) enum Turn {
    /// The rounds whose lap it completed, in join order (possibly none).
    Done(Vec<Ride>),
    /// It failed, and with it every round aboard.
    Failed { riders: Vec<u64>, error: PirError },
    /// It panicked; the rounds aboard are lost.
    Panicked { riders: Vec<u64> },
}

/// What the loop leaves for the driver to pick up at the next boundary.
#[derive(Default)]
struct Inbox {
    joins: Vec<(u64, Vec<u32>)>,
    leaves: Vec<u64>,
    /// Settled rides, back for their buffers.
    spare: Vec<Ride>,
    /// A driver thread is running and will look here again before it ends.
    driven: bool,
}

struct Shared {
    inbox: Mutex<Inbox>,
    /// Held by whoever is running passes.
    rotation: Mutex<Rotation>,
}

/// Recovers a lock a panicking pass may have poisoned: the inbox holds plain
/// lists, and the rotation is cleared by whoever caught the panic.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Shared {
    /// A boundary: takes the joins and leaves left since the last one
    /// (in that order: a round may have been dropped before it ever rode).
    /// Returns whether anybody is aboard; when nobody is, a driver thread
    /// must end, and is no longer counted on.
    fn boundary(&self, rotation: &mut Rotation) -> bool {
        let mut inbox = relock(&self.inbox);
        for ride in inbox.spare.drain(..) {
            rotation.recycle(ride);
        }
        for (id, pages) in inbox.joins.drain(..) {
            rotation.join(id, &pages);
        }
        for id in inbox.leaves.drain(..) {
            rotation.leave(id);
        }
        if rotation.is_idle() {
            inbox.driven = false;
        }
        !rotation.is_idle()
    }
}

/// One segment pass for everybody aboard `rotation`, served by the store of
/// `file` with the driver's `crew`. A panicking pass (a sabotaged driver) is
/// caught here, so that it costs the rounds aboard and not the thread.
fn pass(rotation: &mut Rotation, crew: &mut Crew, gen: &GenEntry, file: FileId) -> Turn {
    let mut done = Vec::new();
    let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rotation.step(
            |seg, wanted, slots| gen.server().scan_pass(file, crew, seg, wanted, slots),
            &mut done,
        )
    }));
    if let Ok(Ok(())) = stepped {
        return Turn::Done(done);
    }
    let riders = rotation.riders().collect();
    rotation.clear();
    match stepped {
        Ok(Err(error)) => Turn::Failed { riders, error },
        _ => Turn::Panicked { riders },
    }
}

/// The one rotation the front has rounds share, and who rides it.
pub(super) struct Lap {
    /// The generation every rider is pinned to.
    pub(crate) gen: Arc<GenEntry>,
    pub(crate) file: FileId,
    /// The clients whose rounds ride, in arrival order. A round rides under
    /// its client's id: a client has one round in flight at most and ids
    /// are never reused, and a lap is replaced only once nobody rides it,
    /// so a late report of a lap since replaced names nobody aboard.
    aboard: Vec<u64>,
    shared: Arc<Shared>,
    /// Whether passes run on a driver thread (else on the loop thread).
    threaded: bool,
    driver: Option<JoinHandle<()>>,
}

impl Lap {
    /// An idle lap over `file` of `gen`; `None` where the file does not share
    /// laps. With `cpus` of one, or a one-segment file, the loop thread
    /// drives it.
    pub(crate) fn new(gen: &Arc<GenEntry>, file: FileId, cpus: usize) -> Option<Lap> {
        let rotation = gen.server().scan_rotation(file)?;
        Some(Lap {
            gen: Arc::clone(gen),
            file,
            aboard: Vec::new(),
            threaded: cpus > 1 && rotation.segments().len() > 1,
            shared: Arc::new(Shared {
                inbox: Mutex::default(),
                rotation: Mutex::new(rotation),
            }),
            driver: None,
        })
    }

    /// True while somebody rides.
    pub(crate) fn is_ridden(&self) -> bool {
        !self.aboard.is_empty()
    }

    /// True when the loop thread has a pass to run: somebody rides and no
    /// driver thread does it.
    pub(crate) fn wants_turn(&self) -> bool {
        !self.threaded && self.is_ridden()
    }

    /// Takes `client`'s round, which asks for `pages` of the file, aboard
    /// from the next boundary on. `events` is the loop's own queue, for a
    /// driver thread to report to.
    pub(crate) fn join(&mut self, client: u64, pages: Vec<u32>, events: &mpsc::Sender<ToServer>) {
        let start = {
            let mut inbox = relock(&self.shared.inbox);
            inbox.joins.push((client, pages));
            let start = self.threaded && !inbox.driven;
            inbox.driven |= start;
            start
        };
        self.aboard.push(client);
        if start {
            self.start_driver(events);
        }
    }

    /// Starts the driver thread of a lap nobody drives. The last one found
    /// nobody aboard and is ending, so joining it first is brief. If the
    /// system refuses a thread, the loop thread drives from here on.
    fn start_driver(&mut self, events: &mpsc::Sender<ToServer>) {
        self.retire();
        let (shared, gen, file) = (Arc::clone(&self.shared), Arc::clone(&self.gen), self.file);
        let events = events.clone();
        let spawned = std::thread::Builder::new()
            .name("privpath-lap".into())
            .spawn(move || {
                let mut rotation = relock(&shared.rotation);
                // the lap's helping hands last as long as this thread does
                let mut crew = gen.server().scan_crew(file);
                while shared.boundary(&mut rotation) {
                    let turn = pass(&mut rotation, &mut crew, &gen, file);
                    // A pass nobody's lap ended with is not news, and the
                    // loop sleeps through it: woken at every boundary, it
                    // sat on the CPU the next pass's second range was about
                    // to start on, which cost a lone lap a third again.
                    if matches!(&turn, Turn::Done(rides) if rides.is_empty()) {
                        continue;
                    }
                    if events.send(ToServer::Lap(turn)).is_err() {
                        break; // the loop is gone: nobody is owed anything
                    }
                }
            });
        match spawned {
            Ok(handle) => self.driver = Some(handle),
            Err(_) => {
                self.threaded = false;
                relock(&self.shared.inbox).driven = false;
            }
        }
    }

    /// One boundary and, if anybody is aboard, one pass on the calling
    /// thread and on no other.
    pub(crate) fn turn(&mut self) -> Option<Turn> {
        let mut rotation = relock(&self.shared.rotation);
        self.shared
            .boundary(&mut rotation)
            .then(|| pass(&mut rotation, &mut Crew::none(), &self.gen, self.file))
    }

    /// Takes `client`'s round off the list of riders; false if it was not
    /// on it.
    pub(crate) fn landed(&mut self, client: u64) -> bool {
        let Some(i) = self.aboard.iter().position(|&c| c == client) else {
            return false;
        };
        self.aboard.remove(i);
        true
    }

    /// Drops `client`'s round at the next boundary: its channel is gone.
    pub(crate) fn leave(&mut self, client: u64) {
        if self.landed(client) {
            relock(&self.shared.inbox).leaves.push(client);
        }
    }

    /// Hands a settled ride over for its buffers: the next round to join
    /// rides in them.
    pub(crate) fn recycle(&mut self, ride: Ride) {
        relock(&self.shared.inbox).spare.push(ride);
    }

    /// Waits for the driver thread, if one was started, to end: it does when
    /// a boundary finds nobody aboard. No thread outlives its lap.
    pub(crate) fn retire(&mut self) {
        if let Some(handle) = self.driver.take() {
            // a pass's panic is caught inside the thread; one that still got
            // out has nobody left to tell
            let _ = handle.join();
        }
    }
}
