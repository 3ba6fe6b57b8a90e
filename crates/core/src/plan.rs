//! Fixed query plans.
//!
//! The security proof (Theorem 1) requires every query to (i) execute the
//! same number of rounds, (ii) access the same files in the same order in
//! each round, and (iii) fetch the same number of pages from each file.
//! A [`QueryPlan`] is that contract as data; it is serialized into the
//! public header file, and the client pads its real needs with dummy
//! retrievals to conform.

use privpath_storage::{ByteReader, ByteWriter, StorageError};

/// Which database file a plan step touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanFile {
    /// The header `Fh`, downloaded in full (never via PIR).
    Header,
    /// The look-up file `Fl`.
    Lookup,
    /// The network index `Fi`.
    Index,
    /// The region data `Fd`.
    Data,
    /// The concatenated `Fi|Fd` file of the HY scheme.
    Combined,
}

impl PlanFile {
    fn tag(self) -> u8 {
        match self {
            PlanFile::Header => 0,
            PlanFile::Lookup => 1,
            PlanFile::Index => 2,
            PlanFile::Data => 3,
            PlanFile::Combined => 4,
        }
    }

    fn from_tag(t: u8) -> Result<Self, StorageError> {
        Ok(match t {
            0 => PlanFile::Header,
            1 => PlanFile::Lookup,
            2 => PlanFile::Index,
            3 => PlanFile::Data,
            4 => PlanFile::Combined,
            _ => return Err(StorageError::Corrupt(format!("bad plan file tag {t}"))),
        })
    }
}

/// One protocol round: an ordered list of `(file, page fetches)` steps.
/// A `Header` step means a full download (page count ignored).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoundSpec {
    /// Steps executed in order within the round.
    pub(crate) steps: Vec<(PlanFile, u32)>,
}

impl RoundSpec {
    /// Single-step round.
    pub(crate) fn one(file: PlanFile, fetches: u32) -> Self {
        RoundSpec {
            steps: vec![(file, fetches)],
        }
    }
}

/// The full fixed plan for a scheme.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryPlan {
    /// Rounds in execution order.
    pub rounds: Vec<RoundSpec>,
}

impl QueryPlan {
    /// Total PIR fetches (all files except the header download).
    pub fn total_fetches(&self) -> u32 {
        self.rounds
            .iter()
            .flat_map(|r| &r.steps)
            .filter(|(f, _)| *f != PlanFile::Header)
            .map(|&(_, n)| n)
            .sum()
    }

    /// Number of rounds.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Serializes the plan (part of the public header).
    pub(crate) fn serialize(&self, w: &mut ByteWriter) {
        w.u16(self.rounds.len() as u16);
        for round in &self.rounds {
            w.u8(round.steps.len() as u8);
            for &(file, n) in &round.steps {
                w.u8(file.tag());
                w.u32(n);
            }
        }
    }

    /// Decodes a plan serialized by [`QueryPlan::serialize`].
    pub(crate) fn deserialize(r: &mut ByteReader<'_>) -> Result<QueryPlan, StorageError> {
        let rounds = r.u16()? as usize;
        let mut plan = QueryPlan::default();
        for _ in 0..rounds {
            let steps = r.u8()? as usize;
            let mut round = RoundSpec::default();
            for _ in 0..steps {
                let file = PlanFile::from_tag(r.u8()?)?;
                let n = r.u32()?;
                round.steps.push((file, n));
            }
            plan.rounds.push(round);
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ci_like_plan() -> QueryPlan {
        QueryPlan {
            rounds: vec![
                RoundSpec::one(PlanFile::Header, 0),
                RoundSpec::one(PlanFile::Lookup, 1),
                RoundSpec::one(PlanFile::Index, 3),
                RoundSpec::one(PlanFile::Data, 12),
            ],
        }
    }

    #[test]
    fn counts() {
        let p = ci_like_plan();
        assert_eq!(p.num_rounds(), 4);
        assert_eq!(p.total_fetches(), 16);
    }

    #[test]
    fn serialization_round_trip() {
        let p = QueryPlan {
            rounds: vec![
                RoundSpec::one(PlanFile::Header, 0),
                RoundSpec::one(PlanFile::Lookup, 1),
                RoundSpec {
                    steps: vec![(PlanFile::Index, 4), (PlanFile::Data, 2)],
                },
            ],
        };
        let mut w = ByteWriter::new();
        p.serialize(&mut w);
        let buf = w.into_vec();
        let q = QueryPlan::deserialize(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn corrupt_tag_rejected() {
        let mut w = ByteWriter::new();
        w.u16(1).u8(1).u8(9).u32(1);
        let buf = w.into_vec();
        assert!(QueryPlan::deserialize(&mut ByteReader::new(&buf)).is_err());
    }
}
