//! The adversary's view: which files are touched, in what order.
//!
//! Theorem 1's proof rests on two facts: (a) each PIR fetch hides *which*
//! page of a file is read, and (b) all queries follow the same query plan, so
//! the number and order of per-file accesses is identical across queries.
//! [`AccessTrace`] records exactly the observable sequence — file identities
//! and round boundaries, never page numbers — so the audit module can assert
//! trace equality between arbitrary queries (an executable Theorem 1).

use crate::server::FileId;

/// One adversary-observable event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The client opened protocol round `n` (1-based).
    RoundStart(u32),
    /// The client downloaded an entire file directly (the header `Fh`, which
    /// "discloses no information about the query itself", §5.3).
    FullDownload(FileId),
    /// One PIR page fetch against a file. The page number is *not* part of
    /// the adversary's view — that is the PIR guarantee.
    PirFetch(FileId),
}

/// The ordered adversary-observable event sequence for one query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessTrace {
    events: Vec<TraceEvent>,
}

impl AccessTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    /// The observable events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of PIR fetches against `file`.
    pub fn fetches_of(&self, file: FileId) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::PirFetch(f) if *f == file))
            .count()
    }

    /// Total PIR fetches.
    pub fn total_fetches(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::PirFetch(_)))
            .count()
    }

    /// Number of protocol rounds the adversary observed (`RoundStart`
    /// events). Batched round execution preserves this exactly: a round is
    /// one `RoundStart` followed by its fetches whether the client issued
    /// them one by one or as a single batch.
    pub fn num_rounds(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RoundStart(_)))
            .count()
    }

    /// Clears the trace (start of a new query).
    pub(crate) fn clear(&mut self) {
        self.events.clear();
    }

    /// A compact human-readable form, e.g. `R1 D0 | R2 F1 | R3 F2 F2`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            match e {
                TraceEvent::RoundStart(n) => {
                    if !out.is_empty() {
                        out.push_str("| ");
                    }
                    out.push_str(&format!("R{n} "));
                }
                TraceEvent::FullDownload(f) => out.push_str(&format!("D{} ", f.0)),
                TraceEvent::PirFetch(f) => out.push_str(&format!("F{} ", f.0)),
            }
        }
        out.trim_end().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_is_observable_equality() {
        let mut a = AccessTrace::new();
        let mut b = AccessTrace::new();
        for t in [&mut a, &mut b] {
            t.push(TraceEvent::RoundStart(1));
            t.push(TraceEvent::FullDownload(FileId(0)));
            t.push(TraceEvent::RoundStart(2));
            t.push(TraceEvent::PirFetch(FileId(1)));
        }
        assert_eq!(a, b);
        b.push(TraceEvent::PirFetch(FileId(1)));
        assert_ne!(a, b);
    }

    #[test]
    fn counts() {
        let mut t = AccessTrace::new();
        t.push(TraceEvent::RoundStart(1));
        t.push(TraceEvent::PirFetch(FileId(1)));
        t.push(TraceEvent::PirFetch(FileId(2)));
        t.push(TraceEvent::RoundStart(2));
        t.push(TraceEvent::PirFetch(FileId(1)));
        assert_eq!(t.fetches_of(FileId(1)), 2);
        assert_eq!(t.fetches_of(FileId(2)), 1);
        assert_eq!(t.total_fetches(), 3);
        assert_eq!(t.num_rounds(), 2);
        t.clear();
        assert_eq!(t.total_fetches(), 0);
        assert_eq!(t.num_rounds(), 0);
    }

    #[test]
    fn summary_format() {
        let mut t = AccessTrace::new();
        t.push(TraceEvent::RoundStart(1));
        t.push(TraceEvent::FullDownload(FileId(0)));
        t.push(TraceEvent::RoundStart(2));
        t.push(TraceEvent::PirFetch(FileId(1)));
        t.push(TraceEvent::PirFetch(FileId(1)));
        assert_eq!(t.summary(), "R1 D0 | R2 F1 F1");
    }
}
