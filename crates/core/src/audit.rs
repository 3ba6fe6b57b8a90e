//! Theorem 1 as executable checks.
//!
//! "Our methodology leaks no information to the adversary about the shortest
//! path query. Equivalently, every processed query is indistinguishable from
//! any other." The proof rests on (i) PIR hiding which page is fetched and
//! (ii) all queries producing the same observable access sequence. Point (ii)
//! is a property of our protocol *implementation*, so we check it directly:
//! any two query traces must be identical, and every trace must conform to
//! the published plan.

use crate::plan::{PlanFile, QueryPlan};
use privpath_pir::{AccessTrace, FileId, ObservedEvent, TraceEvent};

/// Why a set of traces is distinguishable (a privacy bug).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// Two traces differ at an event position.
    TraceMismatch {
        /// Index of the first differing query.
        first: usize,
        /// Index of the second.
        second: usize,
        /// Position of the first differing event.
        position: usize,
    },
    /// A trace does not follow the published plan.
    PlanMismatch {
        /// Query index.
        query: usize,
        /// Explanation.
        reason: String,
    },
    /// The recorded observable stream hit its size cap
    /// ([`privpath_pir::wire::OBSERVED_CAP_BYTES`], 1 MiB per session): the
    /// events cover only a prefix of the session, so conformance cannot be
    /// certified — a truncated stream must fail loudly, not vacuously pass
    /// on the prefix. A session audited whole must stay under the cap.
    ObservedTruncated {
        /// Session index.
        session: usize,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::TraceMismatch {
                first,
                second,
                position,
            } => write!(
                f,
                "queries {first} and {second} are distinguishable at event {position}"
            ),
            AuditError::PlanMismatch { query, reason } => {
                write!(f, "query {query} violates the plan: {reason}")
            }
            AuditError::ObservedTruncated { session } => write!(
                f,
                "session {session}: the recorded observable stream was truncated at its \
                 cap, so wire conformance cannot be certified"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// Checks that all traces are pairwise identical (query
/// indistinguishability). O(n) — everything is compared to the first.
pub fn assert_indistinguishable(traces: &[AccessTrace]) -> Result<(), AuditError> {
    let Some(first) = traces.first() else {
        return Ok(());
    };
    for (qi, t) in traces.iter().enumerate().skip(1) {
        if t != first {
            let position = first
                .events()
                .iter()
                .zip(t.events())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| first.events().len().min(t.events().len()));
            return Err(AuditError::TraceMismatch {
                first: 0,
                second: qi,
                position,
            });
        }
    }
    Ok(())
}

/// Checks a trace against a plan, given the file-id mapping used by the
/// engine. `file_of` maps a plan file to the concrete [`FileId`].
pub fn check_plan_conformance(
    query: usize,
    trace: &AccessTrace,
    plan: &QueryPlan,
    file_of: &dyn Fn(PlanFile) -> FileId,
) -> Result<(), AuditError> {
    let mut expected: Vec<TraceEvent> = Vec::new();
    for (round_no, round) in plan.rounds.iter().enumerate() {
        expected.push(TraceEvent::RoundStart(round_no as u32 + 1));
        for &(file, n) in &round.steps {
            match file {
                PlanFile::Header => expected.push(TraceEvent::FullDownload(file_of(file))),
                _ => {
                    for _ in 0..n {
                        expected.push(TraceEvent::PirFetch(file_of(file)));
                    }
                }
            }
        }
    }
    if trace.events() != expected.as_slice() {
        let pos = trace
            .events()
            .iter()
            .zip(&expected)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| trace.events().len().min(expected.len()));
        return Err(AuditError::PlanMismatch {
            query,
            reason: format!(
                "event {pos}: observed {:?}, plan expects {:?} (trace: {})",
                trace.events().get(pos),
                expected.get(pos),
                trace.summary()
            ),
        });
    }
    Ok(())
}

/// Checks a session's recorded **wire** view against the plan: the parsed
/// observable frame stream (see [`privpath_pir::wire::parse_observed`])
/// must be `SessionOpen`, then `queries` well-formed query blocks, then
/// optionally `SessionClose`. A query block is one `QueryOpen` (round 1)
/// followed, per plan round in order, by the round's observable activity: a
/// `Download` for a `Header` step, and `Round` exchanges — one or more, to
/// allow fixed sub-round structures like the HY continuation walk — whose
/// concatenated fetch file sequence equals the round's expanded steps.
///
/// **Retransmit runs conform too.** A session served over a lossy link
/// re-sends frames; the server records every copy (the adversary sees them
/// all). [`privpath_pir::wire::parse_observed`] reduces that raw stream to
/// the logical one this function checks: same-sequence duplicates are
/// dropped *after verifying each retransmitted frame is bit-identical to
/// its original* — a "retransmission" that differs would be new information
/// flowing to the server and is reported as an error before the events ever
/// reach this check. So a chaos run with retries conforms exactly when its
/// clean-link counterpart does, which is the wire half of Theorem 1 under
/// faults (the chaos differential suite in `tests/leakage.rs` drives this).
///
/// This is strictly coarser than the byte-identity check the leakage suite
/// also performs across sessions (identical streams trivially conform or
/// fail together); its value is anchoring the stream to the *published*
/// plan, so a uniformly-wrong implementation cannot pass.
///
/// `truncated` is the session's
/// [`observed_truncated`](privpath_pir::SessionStats::observed_truncated)
/// flag: when the server stopped recording at the stream cap, `events` is
/// only a prefix of what the adversary saw, and certifying that prefix
/// would be vacuous — the check fails with
/// [`AuditError::ObservedTruncated`] instead.
pub fn check_wire_conformance(
    session: usize,
    events: &[ObservedEvent],
    truncated: bool,
    queries: usize,
    plan: &QueryPlan,
    file_of: &dyn Fn(PlanFile) -> FileId,
) -> Result<(), AuditError> {
    if truncated {
        return Err(AuditError::ObservedTruncated { session });
    }
    let fail = |reason: String| {
        Err(AuditError::PlanMismatch {
            query: session,
            reason,
        })
    };
    let mut it = events.iter().peekable();
    if it.next() != Some(&ObservedEvent::SessionOpen) {
        return fail("stream does not start with SessionOpen".into());
    }
    for q in 0..queries {
        if it.next() != Some(&ObservedEvent::QueryOpen) {
            return fail(format!("query {q}: expected QueryOpen"));
        }
        for (round_no, round) in plan.rounds.iter().enumerate() {
            let round_no = round_no as u32 + 1;
            // expand the round's non-header steps into the expected per-fetch
            // file sequence; a Header step expects a Download event instead
            let mut expected: Vec<FileId> = Vec::new();
            for &(file, n) in &round.steps {
                match file {
                    PlanFile::Header => {
                        let want = file_of(file);
                        match it.next() {
                            Some(ObservedEvent::Download(f)) if *f == want => {}
                            other => {
                                return fail(format!(
                                    "query {q} round {round_no}: expected Download({want:?}), \
                                     got {other:?}"
                                ))
                            }
                        }
                    }
                    _ => expected.extend((0..n).map(|_| file_of(file))),
                }
            }
            // consume every Round exchange carrying this round number
            let mut got: Vec<FileId> = Vec::new();
            while let Some(ObservedEvent::Round { round: r, .. }) = it.peek() {
                if *r != round_no {
                    break;
                }
                let Some(ObservedEvent::Round { fetches, .. }) = it.next() else {
                    unreachable!("peeked a Round event");
                };
                got.extend_from_slice(fetches);
            }
            if got != expected {
                return fail(format!(
                    "query {q} round {round_no}: observed fetch files {:?} but the plan \
                     expands to {:?}",
                    got, expected
                ));
            }
        }
    }
    match it.next() {
        None => Ok(()),
        Some(ObservedEvent::SessionClose) if it.next().is_none() => Ok(()),
        Some(e) => fail(format!("unexpected trailing event {e:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RoundSpec;

    fn trace(events: &[TraceEvent]) -> AccessTrace {
        let mut t = AccessTrace::new();
        for &e in events {
            t.push(e);
        }
        t
    }

    #[test]
    fn identical_traces_pass() {
        let a = trace(&[TraceEvent::RoundStart(1), TraceEvent::PirFetch(FileId(1))]);
        let b = a.clone();
        assert!(assert_indistinguishable(&[a, b]).is_ok());
        assert!(assert_indistinguishable(&[]).is_ok());
    }

    #[test]
    fn differing_traces_flagged_with_position() {
        let a = trace(&[TraceEvent::RoundStart(1), TraceEvent::PirFetch(FileId(1))]);
        let b = trace(&[TraceEvent::RoundStart(1), TraceEvent::PirFetch(FileId(2))]);
        let err = assert_indistinguishable(&[a, b]).unwrap_err();
        assert_eq!(
            err,
            AuditError::TraceMismatch {
                first: 0,
                second: 1,
                position: 1
            }
        );
    }

    #[test]
    fn extra_event_flagged() {
        let a = trace(&[TraceEvent::RoundStart(1)]);
        let b = trace(&[TraceEvent::RoundStart(1), TraceEvent::PirFetch(FileId(0))]);
        assert!(assert_indistinguishable(&[a, b]).is_err());
    }

    #[test]
    fn plan_conformance() {
        let plan = QueryPlan {
            rounds: vec![
                RoundSpec::one(PlanFile::Header, 0),
                RoundSpec::one(PlanFile::Data, 2),
            ],
        };
        let file_of = |f: PlanFile| match f {
            PlanFile::Header => FileId(0),
            _ => FileId(1),
        };
        let good = trace(&[
            TraceEvent::RoundStart(1),
            TraceEvent::FullDownload(FileId(0)),
            TraceEvent::RoundStart(2),
            TraceEvent::PirFetch(FileId(1)),
            TraceEvent::PirFetch(FileId(1)),
        ]);
        assert!(check_plan_conformance(0, &good, &plan, &file_of).is_ok());

        let short = trace(&[
            TraceEvent::RoundStart(1),
            TraceEvent::FullDownload(FileId(0)),
            TraceEvent::RoundStart(2),
            TraceEvent::PirFetch(FileId(1)),
        ]);
        assert!(check_plan_conformance(0, &short, &plan, &file_of).is_err());
    }

    #[test]
    fn wire_conformance_accepts_sub_round_exchanges() {
        let plan = QueryPlan {
            rounds: vec![
                RoundSpec::one(PlanFile::Header, 0),
                RoundSpec::one(PlanFile::Data, 3),
            ],
        };
        let file_of = |f: PlanFile| match f {
            PlanFile::Header => FileId(0),
            _ => FileId(1),
        };
        // round 2 split into two exchanges (a continuation walk shape)
        let events = vec![
            ObservedEvent::SessionOpen,
            ObservedEvent::QueryOpen,
            ObservedEvent::Download(FileId(0)),
            ObservedEvent::Round {
                round: 2,
                fetches: vec![FileId(1)],
            },
            ObservedEvent::Round {
                round: 2,
                fetches: vec![FileId(1), FileId(1)],
            },
            ObservedEvent::SessionClose,
        ];
        assert!(check_wire_conformance(0, &events, false, 1, &plan, &file_of).is_ok());

        // one fetch short: the concatenation no longer matches the plan
        let mut short = events.clone();
        short[4] = ObservedEvent::Round {
            round: 2,
            fetches: vec![FileId(1)],
        };
        assert!(check_wire_conformance(0, &short, false, 1, &plan, &file_of).is_err());

        // fetching the wrong file is caught even with matching counts
        let mut wrong = events;
        wrong[3] = ObservedEvent::Round {
            round: 2,
            fetches: vec![FileId(0)],
        };
        assert!(check_wire_conformance(0, &wrong, false, 1, &plan, &file_of).is_err());
    }

    #[test]
    fn truncated_observed_stream_fails_instead_of_vacuously_passing() {
        let plan = QueryPlan {
            rounds: vec![RoundSpec::one(PlanFile::Data, 1)],
        };
        let file_of = |_: PlanFile| FileId(1);
        let events = vec![
            ObservedEvent::SessionOpen,
            ObservedEvent::QueryOpen,
            ObservedEvent::Round {
                round: 1,
                fetches: vec![FileId(1)],
            },
        ];
        // the same stream certifies when complete...
        assert!(check_wire_conformance(3, &events, false, 1, &plan, &file_of).is_ok());
        // ...but a capped recording is only a prefix of what the adversary
        // saw, and must be a typed failure — even though the prefix conforms
        assert_eq!(
            check_wire_conformance(3, &events, true, 1, &plan, &file_of),
            Err(AuditError::ObservedTruncated { session: 3 })
        );
    }
}
