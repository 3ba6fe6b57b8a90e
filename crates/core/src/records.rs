//! Network-index record formats and the in-page delta compression of §5.5.
//!
//! An index record holds either a region set `S_ij` (CI) or a subgraph
//! `G_ij` as edge triples (PI) — the HY scheme mixes both in one file. Each
//! record is stored literally or as a *delta* against a reference record in
//! the same page (the one with the largest overlap):
//!
//! * region deltas carry *includes* plus, when the inflated set would exceed
//!   the plan bound `m`, *excludes* chosen from the reference (§5.5) — the
//!   decoded set may be a superset of the true `S_ij`, which merely replaces
//!   dummy fetches with fetches of unneeded (real) pages;
//! * subgraph deltas carry only includes (§6): extra decoded edges are
//!   genuine network edges and cannot mislead the client's Dijkstra.

use crate::error::CoreError;
use crate::Result;
use privpath_storage::{ByteReader, ByteWriter};

/// An edge of a `G_ij` subgraph, self-contained for the client:
/// `(tail node, head node, weight)`.
pub(crate) type EdgeTriple = (u32, u32, u32);

/// A decoded index record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum IndexPayload {
    /// Region identifiers (decoded `S_ij`, possibly inflated, `<= m`).
    Regions(Vec<u16>),
    /// Edge triples (decoded `G_ij`, possibly inflated).
    Edges(Vec<EdgeTriple>),
}

const KIND_REGIONS_LITERAL: u8 = 0;
const KIND_REGIONS_DELTA: u8 = 1;
const KIND_EDGES_LITERAL: u8 = 2;
const KIND_EDGES_DELTA: u8 = 3;

/// Serialized size of a literal record of `n` region ids: kind, `u16`
/// count, ids.
pub(crate) const fn regions_literal_size(n: usize) -> usize {
    1 + 2 + 2 * n
}

/// Serialized size of a literal record of `n` edge triples: kind, `u32`
/// count, triples.
pub(crate) const fn edges_literal_size(n: usize) -> usize {
    1 + 4 + 12 * n
}

/// Serialized size of a literal record for `payload`.
pub(crate) fn literal_size(payload: &IndexPayload) -> usize {
    match payload {
        IndexPayload::Regions(v) => regions_literal_size(v.len()),
        IndexPayload::Edges(v) => edges_literal_size(v.len()),
    }
}

/// Encodes `payload` literally.
pub(crate) fn encode_literal(payload: &IndexPayload, w: &mut ByteWriter) {
    match payload {
        IndexPayload::Regions(v) => {
            w.u8(KIND_REGIONS_LITERAL);
            w.u16(v.len() as u16);
            for &r in v {
                w.u16(r);
            }
        }
        IndexPayload::Edges(v) => {
            w.u8(KIND_EDGES_LITERAL);
            w.u32(v.len() as u32);
            for &(a, b, wt) in v {
                w.u32(a).u32(b).u32(wt);
            }
        }
    }
}

/// A delta encoding decision: the encoded bytes (which name the chosen
/// reference slot) and the payload the *client* will decode (possibly
/// inflated).
#[derive(Debug)]
pub(crate) struct DeltaEncoding {
    /// Serialized record bytes.
    pub(crate) bytes: Vec<u8>,
    /// What decoding will yield — a superset of the true payload.
    pub(crate) decoded: IndexPayload,
}

/// How many of the most recent in-page records [`try_delta`] considers as
/// delta references. The old exhaustive scan made index formation quadratic
/// per page (compression packs hundreds of records into one page, and every
/// add re-compared against all of them) — at paper scale the `Fi` build
/// dominated the whole offline pipeline. Consecutive `(i, j)` records are
/// the spatially correlated ones, so a short recency window keeps nearly
/// all of the compression at a small, constant per-record cost.
pub(crate) const DELTA_WINDOW: usize = 16;

/// Tries to delta-encode `payload` against the decoded payloads already in
/// the page (the [`DELTA_WINDOW`] most recent ones). Returns the best
/// encoding that is strictly smaller than the literal one, or `None`.
///
/// `m` bounds the decoded cardinality for region sets (the CI query plan
/// fetches `m + 2` region pages, so decoded sets must not exceed `m`).
pub(crate) fn try_delta(
    payload: &IndexPayload,
    in_page: &[IndexPayload],
    m: usize,
) -> Option<DeltaEncoding> {
    let mut best: Option<DeltaEncoding> = None;
    let start = in_page.len().saturating_sub(DELTA_WINDOW);
    for (slot, reference) in in_page.iter().enumerate().skip(start) {
        let candidate = match (payload, reference) {
            (IndexPayload::Regions(mine), IndexPayload::Regions(refs)) => {
                delta_regions(mine, refs, slot as u16, m)
            }
            (IndexPayload::Edges(mine), IndexPayload::Edges(refs)) => {
                delta_edges(mine, refs, slot as u16)
            }
            _ => None,
        };
        if let Some(c) = candidate {
            if best.as_ref().is_none_or(|b| c.bytes.len() < b.bytes.len()) {
                best = Some(c);
            }
        }
    }
    best.filter(|b| b.bytes.len() < literal_size(payload))
}

/// Merge-walks two strictly sorted slices into `mine \ refs` (the record's
/// includes), `refs \ mine` (exclusion candidates, in reference order) and
/// the sorted union — one allocation-light pass instead of the `BTreeSet`
/// churn this replaced (every payload here is sorted by construction:
/// pre-computation output, sorted edge triples and decoded deltas alike).
fn merge_sets<T: Copy + Ord>(mine: &[T], refs: &[T]) -> (Vec<T>, Vec<T>, Vec<T>) {
    debug_assert!(mine.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(refs.windows(2).all(|w| w[0] < w[1]));
    let mut includes = Vec::new();
    let mut candidates = Vec::new();
    let mut union = Vec::with_capacity(mine.len() + refs.len());
    let (mut a, mut b) = (0usize, 0usize);
    while a < mine.len() || b < refs.len() {
        match (mine.get(a), refs.get(b)) {
            (Some(&x), Some(&y)) if x == y => {
                union.push(x);
                a += 1;
                b += 1;
            }
            (Some(&x), Some(&y)) if x < y => {
                includes.push(x);
                union.push(x);
                a += 1;
            }
            (Some(&x), None) => {
                includes.push(x);
                union.push(x);
                a += 1;
            }
            (_, Some(&y)) => {
                candidates.push(y);
                union.push(y);
                b += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    (includes, candidates, union)
}

fn delta_regions(mine: &[u16], refs: &[u16], slot: u16, m: usize) -> Option<DeltaEncoding> {
    debug_assert!(mine.len() <= m || m == 0);
    let (includes, candidates, union) = merge_sets(mine, refs);
    // decoded base = ref ∪ includes
    let base_len = refs.len() + includes.len();
    let (excludes, decoded): (Vec<u16>, Vec<u16>) = if base_len <= m {
        // No exclusions needed: inflation stays within the plan bound.
        (Vec::new(), union)
    } else {
        // Exclude enough reference-only elements to come down to m.
        let need = base_len - m;
        if candidates.len() < need {
            return None; // cannot satisfy the bound (|mine| > m): impossible by definition of m
        }
        let excludes: Vec<u16> = candidates[..need].to_vec();
        // decoded = union \ excludes (both sorted; excludes ⊆ union)
        let mut d = Vec::with_capacity(union.len() - need);
        let mut e = 0usize;
        for &x in &union {
            if e < excludes.len() && excludes[e] == x {
                e += 1;
            } else {
                d.push(x);
            }
        }
        (excludes, d)
    };
    debug_assert!(decoded.len() <= m.max(mine.len()));
    debug_assert!(
        mine.iter().all(|r| decoded.contains(r)),
        "delta must cover the true set"
    );

    let mut w = ByteWriter::new();
    w.u8(KIND_REGIONS_DELTA);
    w.u16(slot);
    w.u16(includes.len() as u16);
    for &r in &includes {
        w.u16(r);
    }
    w.u16(excludes.len() as u16);
    for &r in &excludes {
        w.u16(r);
    }
    Some(DeltaEncoding {
        bytes: w.into_vec(),
        decoded: IndexPayload::Regions(decoded),
    })
}

fn delta_edges(mine: &[EdgeTriple], refs: &[EdgeTriple], slot: u16) -> Option<DeltaEncoding> {
    // Sorted edge lists may carry duplicate triples (parallel arcs with
    // equal weight); the delta works on the set view — duplicates change no
    // shortest path, and the decoded superset guarantee is preserved.
    let dedup = |v: &[EdgeTriple]| -> Option<Vec<EdgeTriple>> {
        if v.windows(2).all(|w| w[0] < w[1]) {
            None
        } else {
            let mut d = v.to_vec();
            d.dedup();
            Some(d)
        }
    };
    let (mine_d, refs_d) = (dedup(mine), dedup(refs));
    let mine = mine_d.as_deref().unwrap_or(mine);
    let refs = refs_d.as_deref().unwrap_or(refs);
    let (includes, _, decoded) = merge_sets(mine, refs);

    let mut w = ByteWriter::new();
    w.u8(KIND_EDGES_DELTA);
    w.u16(slot);
    w.u32(includes.len() as u32);
    for &(a, b, wt) in &includes {
        w.u32(a).u32(b).u32(wt);
    }
    Some(DeltaEncoding {
        bytes: w.into_vec(),
        decoded: IndexPayload::Edges(decoded),
    })
}

/// What a record's head says: a literal's byte length, read from its kind
/// and count, or the in-page directory slot a delta record references.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RecordHead {
    /// A literal record of this many bytes, head included.
    Literal(usize),
    /// A delta against the record of this slot of the same page.
    Delta(u16),
}

/// Reads the head of the record `rec` starts with.
pub(crate) fn read_head(rec: &[u8]) -> Result<RecordHead> {
    let mut r = ByteReader::new(rec);
    Ok(match r.u8()? {
        KIND_REGIONS_LITERAL => RecordHead::Literal(regions_literal_size(r.u16()?.into())),
        KIND_EDGES_LITERAL => RecordHead::Literal(edges_literal_size(r.u32()? as usize)),
        KIND_REGIONS_DELTA | KIND_EDGES_DELTA => RecordHead::Delta(r.u16()?),
        k => return Err(CoreError::Query(format!("unknown index record kind {k}"))),
    })
}

/// A record's bytes in order: what its first page holds, then, for a
/// literal that spans, its continuation pages. The caller checks the
/// record's length against both first, so no read runs past them.
struct Parts<'a> {
    cur: &'a [u8],
    next: &'a [u8],
}

impl<'a> Parts<'a> {
    fn of(bytes: &'a [u8]) -> Self {
        Parts {
            cur: bytes,
            next: &[],
        }
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        if let Some((bytes, rest)) = self.cur.split_first_chunk::<N>() {
            self.cur = rest;
            return *bytes;
        }
        // an element split across the page boundary
        let mut out = [0; N];
        for b in &mut out {
            if self.cur.is_empty() {
                self.cur = std::mem::take(&mut self.next);
            }
            if let Some((&x, rest)) = self.cur.split_first() {
                *b = x;
                self.cur = rest;
            }
        }
        out
    }

    fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take())
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }
}

/// Decodes the literal record `rec` starts with, reading on into `rest` —
/// the payloads of its continuation pages — where its length runs past
/// `rec`. A length beyond what the two hold is an error before anything is
/// reserved.
pub(crate) fn decode_literal(rec: &[u8], rest: &[u8]) -> Result<IndexPayload> {
    let RecordHead::Literal(len) = read_head(rec)? else {
        return Err(CoreError::Query(
            "index record is a delta, not a literal".into(),
        ));
    };
    let (cur, next) = if len <= rec.len() {
        (&rec[..len], &rest[..0])
    } else {
        let more = rest.get(..len - rec.len()).ok_or_else(|| {
            CoreError::Query(format!(
                "index record of {len} bytes overruns the {} its pages hold",
                rec.len() + rest.len()
            ))
        })?;
        (rec, more)
    };
    let mut r = Parts { cur, next };
    Ok(match r.take() {
        [KIND_REGIONS_LITERAL] => {
            let n = r.u16();
            IndexPayload::Regions((0..n).map(|_| r.u16()).collect())
        }
        _ => {
            let n = r.u32();
            IndexPayload::Edges((0..n).map(|_| (r.u32(), r.u32(), r.u32())).collect())
        }
    })
}

/// Applies the delta record `rec` to `base`, the decoded record of the slot
/// it references: region deltas drop their excludes from the reference and
/// add their includes, edge deltas add their includes; either way the
/// result is sorted and deduplicated. Counts are checked against the
/// record's bytes before anything is reserved.
pub(crate) fn apply_delta(rec: &[u8], base: &mut IndexPayload) -> Result<()> {
    let mut r = ByteReader::new(rec);
    let kind = r.u8()?;
    r.u16()?; // the reference slot, resolved by the caller
    match (kind, base) {
        (KIND_REGIONS_DELTA, IndexPayload::Regions(v)) => {
            let n = r.u16()?;
            let mut incl = Parts::of(r.bytes(2 * usize::from(n))?);
            let n_excl = r.u16()?;
            let excl = r.bytes(2 * usize::from(n_excl))?;
            v.retain(|x| !excl.chunks_exact(2).any(|e| e == x.to_le_bytes()));
            v.extend((0..n).map(|_| incl.u16()));
            v.sort_unstable();
            v.dedup();
        }
        (KIND_EDGES_DELTA, IndexPayload::Edges(v)) => {
            let n = r.u32()?;
            let mut incl = Parts::of(r.bytes(12 * n as usize)?);
            v.extend((0..n).map(|_| (incl.u32(), incl.u32(), incl.u32())));
            v.sort_unstable();
            v.dedup();
        }
        _ => {
            return Err(CoreError::Query(format!(
                "index delta of kind {kind} references a record of the other kind"
            )))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn decode(bytes: &[u8], refs: &[IndexPayload]) -> Result<IndexPayload> {
        match read_head(bytes)? {
            RecordHead::Literal(_) => decode_literal(bytes, &[]),
            RecordHead::Delta(slot) => {
                let mut payload = refs[slot as usize].clone();
                apply_delta(bytes, &mut payload)?;
                Ok(payload)
            }
        }
    }

    fn decode_bytes(bytes: &[u8], refs: &[IndexPayload]) -> IndexPayload {
        decode(bytes, refs).unwrap()
    }

    #[test]
    fn literal_round_trip_regions() {
        let p = IndexPayload::Regions(vec![1, 5, 9]);
        let mut w = ByteWriter::new();
        encode_literal(&p, &mut w);
        assert_eq!(w.len(), literal_size(&p));
        assert_eq!(decode_bytes(w.as_slice(), &[]), p);
    }

    #[test]
    fn literal_round_trip_edges() {
        let p = IndexPayload::Edges(vec![(1, 2, 10), (3, 4, 20)]);
        let mut w = ByteWriter::new();
        encode_literal(&p, &mut w);
        assert_eq!(w.len(), literal_size(&p));
        assert_eq!(decode_bytes(w.as_slice(), &[]), p);
    }

    #[test]
    fn region_delta_without_exclusions_inflates_within_m() {
        // Paper's §5.5 example scaled up so the delta beats the literal:
        // S shares a large base with the reference and adds {108}.
        let base: Vec<u16> = (0..20).collect();
        let mut mine_v = base.clone();
        mine_v.push(108);
        let mut ref_v = base.clone();
        ref_v.extend([30u16, 31, 32]); // ref-only extras
        let mine = IndexPayload::Regions(mine_v.clone());
        let refs = vec![IndexPayload::Regions(ref_v.clone())];
        // m large enough that ref ∪ includes stays within the bound:
        let enc = try_delta(&mine, &refs, 30).expect("delta should win");
        if let IndexPayload::Regions(d) = &enc.decoded {
            // decoded = ref ∪ {108}, inflated by the ref-only extras
            let mut want: Vec<u16> = ref_v.clone();
            want.push(108);
            want.sort_unstable();
            assert_eq!(d, &want);
        } else {
            panic!("wrong payload type");
        }
        assert!(enc.bytes.len() < literal_size(&mine));
        assert_eq!(decode_bytes(&enc.bytes, &refs), enc.decoded);
    }

    #[test]
    fn region_delta_with_exclusions_caps_at_m() {
        // m below |ref ∪ includes| forces exclusions of ref-only elements.
        let base: Vec<u16> = (0..20).collect();
        let mut mine_v = base.clone();
        mine_v.push(108); // |mine| = 21
        let mut ref_v = base.clone();
        ref_v.extend([30u16, 31, 32]); // |ref ∪ incl| = 24
        let mine = IndexPayload::Regions(mine_v.clone());
        let refs = vec![IndexPayload::Regions(ref_v)];
        let enc = try_delta(&mine, &refs, 22).expect("delta still fits");
        if let IndexPayload::Regions(d) = &enc.decoded {
            assert_eq!(d.len(), 22);
            for r in &mine_v {
                assert!(d.contains(r), "decoded must cover the true set");
            }
        } else {
            panic!("wrong payload type");
        }
        assert_eq!(decode_bytes(&enc.bytes, &refs), enc.decoded);
    }

    #[test]
    fn delta_not_used_when_literal_is_smaller() {
        let mine = IndexPayload::Regions(vec![100, 200]);
        let refs = vec![IndexPayload::Regions(vec![1, 2, 3])];
        // includes = {100,200} -> delta is 1+2+2+4+2 = 11 > literal 7
        assert!(try_delta(&mine, &refs, 10).is_none());
    }

    #[test]
    fn edge_delta_includes_only() {
        let mine = IndexPayload::Edges(vec![(1, 2, 5), (7, 8, 9)]);
        let refs = vec![IndexPayload::Edges(vec![(1, 2, 5), (3, 4, 6)])];
        let enc = try_delta(&mine, &refs, 0).expect("edge delta");
        // decoded = ref ∪ includes (inflation is harmless for edges)
        assert_eq!(
            enc.decoded,
            IndexPayload::Edges(vec![(1, 2, 5), (3, 4, 6), (7, 8, 9)])
        );
        assert_eq!(decode_bytes(&enc.bytes, &refs), enc.decoded);
    }

    #[test]
    fn picks_best_reference() {
        let mine = IndexPayload::Regions(vec![1, 2, 3, 4]);
        let refs = vec![
            IndexPayload::Regions(vec![9, 10]),
            IndexPayload::Regions(vec![1, 2, 3]),
        ];
        let enc = try_delta(&mine, &refs, 100).unwrap();
        // kind byte, then the reference's directory slot
        assert_eq!(enc.bytes[..3], [KIND_REGIONS_DELTA, 1, 0]);
    }

    #[test]
    fn unknown_kind_rejected() {
        assert!(decode(&[9u8, 0, 0], &[]).is_err());
    }

    #[test]
    fn cross_type_reference_rejected() {
        let mine = IndexPayload::Regions(vec![1]);
        let mut w = ByteWriter::new();
        w.u8(1).u16(0).u16(1).u16(1).u16(0); // delta ref slot 0
        let refs = [IndexPayload::Edges(vec![])];
        assert!(decode(w.as_slice(), &refs).is_err());
        let _ = mine;
    }

    proptest! {
        #[test]
        fn region_delta_always_covers_and_respects_m(
            mine in proptest::collection::btree_set(0u16..60, 1..20),
            reference in proptest::collection::btree_set(0u16..60, 0..30),
        ) {
            let m = 25usize.max(mine.len());
            let mine_v: Vec<u16> = mine.iter().copied().collect();
            let refs = vec![IndexPayload::Regions(reference.iter().copied().collect())];
            if let Some(enc) = try_delta(&IndexPayload::Regions(mine_v.clone()), &refs, m) {
                if let IndexPayload::Regions(d) = &enc.decoded {
                    prop_assert!(d.len() <= m);
                    for r in &mine_v {
                        prop_assert!(d.contains(r));
                    }
                    // decode agrees with predicted decoded payload
                    prop_assert_eq!(decode_bytes(&enc.bytes, &refs), enc.decoded);
                } else {
                    prop_assert!(false, "wrong type");
                }
            }
        }

        #[test]
        fn edge_literal_round_trip(
            edges in proptest::collection::btree_set((0u32..100, 0u32..100, 1u32..1000), 0..50)
        ) {
            let p = IndexPayload::Edges(edges.into_iter().collect());
            let mut w = ByteWriter::new();
            encode_literal(&p, &mut w);
            prop_assert_eq!(decode_bytes(w.as_slice(), &[]), p);
        }
    }
}
