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
//! generation, so a lap never mixes generations. The loop thread is its only
//! driver, on every host: it takes every queued frame, runs one pass
//! ([`Lap::turn`]) and looks at its queue again, so a frame that arrives
//! during a pass waits for the segment boundary — at most one pass. The
//! ranges of a pass after the first are swept by the crew of helper threads
//! the file's store keeps for its whole life ([`crate::scan::Crew`]). The
//! loop keeps everything else — each client's riding request and the frames
//! behind it, the replay caches — and settles each round, when its lap ends,
//! through the one path every request takes.

use super::front::GenEntry;
use crate::error::PirError;
use crate::scan::{Ride, Rotation};
use crate::server::FileId;
use std::sync::Arc;

/// What one pass came to.
pub(crate) enum Turn {
    /// The rounds whose lap it completed, in join order (possibly none).
    Done(Vec<Ride>),
    /// It failed, and with it every round aboard.
    Failed { riders: Vec<u64>, error: PirError },
    /// It panicked; the rounds aboard are lost.
    Panicked { riders: Vec<u64> },
}

/// The one rotation the front has rounds share. A round rides under its
/// client's id: a client has one round in flight at most and ids are never
/// reused.
pub(super) struct Lap {
    /// The generation every rider is pinned to.
    pub(crate) gen: Arc<GenEntry>,
    pub(crate) file: FileId,
    rotation: Rotation,
}

impl Lap {
    /// An idle lap over `file` of `gen`; `None` where the file does not share
    /// laps.
    pub(crate) fn new(gen: &Arc<GenEntry>, file: FileId) -> Option<Lap> {
        Some(Lap {
            rotation: gen.server().scan_rotation(file)?,
            gen: Arc::clone(gen),
            file,
        })
    }

    /// True while somebody rides.
    pub(crate) fn is_ridden(&self) -> bool {
        !self.rotation.is_idle()
    }

    /// True when a lap is one pass: a rider is that pass from its end.
    pub(crate) fn is_one_segment(&self) -> bool {
        self.rotation.segments().len() == 1
    }

    /// Takes `client`'s round, which asks for `pages` of the file, aboard
    /// from the next pass on.
    pub(crate) fn join(&mut self, client: u64, pages: &[u32]) {
        self.rotation.join(client, pages);
    }

    /// One pass for everybody aboard, if anybody is, under the store's lock.
    /// A panicking pass (a sabotaged driver) is caught here, so that it costs
    /// the rounds aboard and not the loop.
    pub(crate) fn turn(&mut self) -> Option<Turn> {
        if !self.is_ridden() {
            return None;
        }
        let (rotation, server, file) = (&mut self.rotation, self.gen.server(), self.file);
        let mut done = Vec::new();
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rotation.step(
                |seg, wanted, slots| server.scan_pass(file, seg, wanted, slots),
                &mut done,
            )
        }));
        if let Ok(Ok(())) = stepped {
            return Some(Turn::Done(done));
        }
        let riders = rotation.riders().collect();
        rotation.clear();
        Some(match stepped {
            Ok(Err(error)) => Turn::Failed { riders, error },
            _ => Turn::Panicked { riders },
        })
    }

    /// Drops `client`'s round: its channel is gone.
    pub(crate) fn leave(&mut self, client: u64) {
        self.rotation.leave(client);
    }

    /// Hands a settled ride over for its buffers: the next round to join
    /// rides in them.
    pub(crate) fn recycle(&mut self, ride: Ride) {
        self.rotation.recycle(ride);
    }
}
