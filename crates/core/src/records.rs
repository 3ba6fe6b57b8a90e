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
//!
//! Layouts, integers little-endian; `v` is a varint of a `u32` (LEB128:
//! seven bits a byte, low group first, the top bit set on every byte but
//! the last; at most five bytes, and no final zero group after the first
//! byte, so each value has one encoding):
//!
//! ```text
//! regions literal  [0][n u16][region u16]×n
//! regions delta    [1][slot u16][n u16][region u16]×n[k u16][region u16]×k
//! edges literal    [2][body v] body = [n v][triple]×n
//! edges delta      [3][slot u16][n v][triple]×n
//! triple           [tail − previous tail v][zigzag(head − tail) v][weight v]
//! ```
//!
//! Edge triples are dense: the first tail is a delta from 0, and the
//! differences are taken modulo 2^32 (the head's as an `i32`, zigzagged so a
//! head just below its tail is small too), so every list of triples encodes
//! and decodes to itself. The lists stored are sorted, so a tail delta is
//! mostly one byte and a nearby head one or two: about five bytes a triple
//! against the twelve of three `u32`s. A literal's head — its kind and, for
//! edges, the body's byte length — gives its length, which is how `Fi`
//! knows how many pages a record spans; a delta never spans. The decoder
//! checks every count against the bytes that can hold it (a triple takes at
//! least three) before it reserves anything.

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

/// The most bytes a literal's head takes: its kind and a five-byte varint.
pub(crate) const MAX_HEAD_BYTES: usize = 6;

/// Serialized size of a literal record of `n` region ids: kind, `u16`
/// count, ids.
pub(crate) const fn regions_literal_size(n: usize) -> usize {
    1 + 2 + 2 * n
}

/// Serialized size of a literal record of `triples`: kind, body length,
/// count, triples.
pub(crate) fn edges_literal_size(triples: &[EdgeTriple]) -> usize {
    let body = edges_body_size(triples);
    1 + varint_size(body as u32) + body
}

/// Serialized size of a literal record for `payload`.
pub(crate) fn literal_size(payload: &IndexPayload) -> usize {
    match payload {
        IndexPayload::Regions(v) => regions_literal_size(v.len()),
        IndexPayload::Edges(v) => edges_literal_size(v),
    }
}

fn varint_size(v: u32) -> usize {
    (32 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

fn put_varint(w: &mut ByteWriter, mut v: u32) {
    while v >= 0x80 {
        w.u8(v as u8 | 0x80);
        v >>= 7;
    }
    w.u8(v as u8);
}

/// `d` with its sign in the low bit: small magnitudes stay small.
fn zigzag(d: i32) -> u32 {
    ((d << 1) ^ (d >> 31)) as u32
}

fn unzigzag(z: u32) -> i32 {
    (z >> 1) as i32 ^ -((z & 1) as i32)
}

/// The varints of one triple, against the previous triple's tail.
fn triple_varints(prev_tail: u32, (tail, head, weight): EdgeTriple) -> [u32; 3] {
    [
        tail.wrapping_sub(prev_tail),
        zigzag(head.wrapping_sub(tail) as i32),
        weight,
    ]
}

/// Bytes of an edge body: the count, then the triples.
fn edges_body_size(triples: &[EdgeTriple]) -> usize {
    let mut prev = 0;
    let mut size = varint_size(triples.len() as u32);
    for &t in triples {
        size += triple_varints(prev, t)
            .map(varint_size)
            .iter()
            .sum::<usize>();
        prev = t.0;
    }
    size
}

fn put_edges_body(w: &mut ByteWriter, triples: &[EdgeTriple]) {
    put_varint(w, triples.len() as u32);
    let mut prev = 0;
    for &t in triples {
        for v in triple_varints(prev, t) {
            put_varint(w, v);
        }
        prev = t.0;
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
            put_varint(w, edges_body_size(v) as u32);
            put_edges_body(w, v);
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
    put_edges_body(&mut w, &includes);
    Some(DeltaEncoding {
        bytes: w.into_vec(),
        decoded: IndexPayload::Edges(decoded),
    })
}

/// What a record's head says: a literal's byte length, read from its kind
/// and its count or body length, or the in-page directory slot a delta
/// record references.
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
        KIND_EDGES_LITERAL => {
            let body = Cursor::of(&rec[1..]).varint()?;
            RecordHead::Literal(1 + varint_size(body) + body as usize)
        }
        KIND_REGIONS_DELTA | KIND_EDGES_DELTA => RecordHead::Delta(r.u16()?),
        k => return Err(CoreError::Query(format!("unknown index record kind {k}"))),
    })
}

/// A record's bytes in order, no more than `left` of them: `cur`, then the
/// slices `more` yields.
struct Cursor<'a, I> {
    cur: &'a [u8],
    more: I,
    left: usize,
}

impl<'a> Cursor<'a, std::iter::Empty<Result<&'a [u8]>>> {
    /// The bytes of one slice.
    fn of(bytes: &'a [u8]) -> Self {
        Cursor {
            cur: bytes,
            more: std::iter::empty(),
            left: bytes.len(),
        }
    }
}

impl<'a, I: Iterator<Item = Result<&'a [u8]>>> Cursor<'a, I> {
    fn byte(&mut self) -> Result<u8> {
        if self.left == 0 {
            return Err(CoreError::Query("index record ends inside a field".into()));
        }
        loop {
            if let Some((&b, rest)) = self.cur.split_first() {
                self.cur = rest;
                self.left -= 1;
                return Ok(b);
            }
            self.cur = self.more.next().ok_or_else(|| {
                CoreError::Query("index record runs past the pages that hold it".into())
            })??;
        }
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes([self.byte()?, self.byte()?]))
    }

    fn varint(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for shift in (0..32).step_by(7) {
            let b = self.byte()?;
            let group = u32::from(b & 0x7f);
            if group >> (32 - shift).min(7) != 0 {
                return Err(CoreError::Query("index varint overflows a u32".into()));
            }
            v |= group << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(CoreError::Query("overlong index varint".into()));
                }
                return Ok(v);
            }
        }
        Err(CoreError::Query("unterminated index varint".into()))
    }

    /// Reads an edge body's count and its triples into `out`.
    fn edges_into(&mut self, out: &mut Vec<EdgeTriple>) -> Result<()> {
        let n = self.varint()? as usize;
        if n > self.left / 3 {
            return Err(CoreError::Query(format!(
                "index record claims {n} triples in {} bytes",
                self.left
            )));
        }
        out.reserve(n);
        let mut tail = 0u32;
        for _ in 0..n {
            tail = tail.wrapping_add(self.varint()?);
            let head = tail.wrapping_add(unzigzag(self.varint()?) as u32);
            out.push((tail, head, self.varint()?));
        }
        Ok(())
    }
}

/// Decodes the literal record `rec` starts with, reading on into `carries`
/// — the slices its bytes continue in, one a page, when it spans — where
/// its length runs past `rec`. A count beyond the bytes that can hold it is
/// an error before anything is reserved, and so is a body with bytes left
/// over.
pub(crate) fn decode_literal<'a>(
    rec: &'a [u8],
    carries: impl Iterator<Item = Result<&'a [u8]>>,
) -> Result<IndexPayload> {
    let RecordHead::Literal(len) = read_head(rec)? else {
        return Err(CoreError::Query(
            "index record is a delta, not a literal".into(),
        ));
    };
    let mut r = Cursor {
        cur: &rec[..len.min(rec.len())],
        more: carries,
        left: len,
    };
    let payload = match r.byte()? {
        KIND_REGIONS_LITERAL => {
            let n = r.u16()?;
            let mut v = Vec::with_capacity(n.into());
            for _ in 0..n {
                v.push(r.u16()?);
            }
            IndexPayload::Regions(v)
        }
        _ => {
            r.varint()?; // the body length, which `len` holds
            let mut v = Vec::new();
            r.edges_into(&mut v)?;
            IndexPayload::Edges(v)
        }
    };
    if r.left != 0 {
        return Err(CoreError::Query(format!(
            "index record has {} bytes past its last triple",
            r.left
        )));
    }
    Ok(payload)
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
            let incl = r.bytes(2 * usize::from(n))?;
            let n_excl = r.u16()?;
            let excl = r.bytes(2 * usize::from(n_excl))?;
            v.retain(|x| !excl.chunks_exact(2).any(|e| e == x.to_le_bytes()));
            v.extend(
                incl.chunks_exact(2)
                    .map(|b| u16::from_le_bytes([b[0], b[1]])),
            );
            v.sort_unstable();
            v.dedup();
        }
        (KIND_EDGES_DELTA, IndexPayload::Edges(v)) => {
            Cursor::of(&rec[3..]).edges_into(v)?;
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
            RecordHead::Literal(_) => decode_literal(bytes, std::iter::empty()),
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

        /// Dense literals decode to exactly the triples encoded — sorted
        /// or not, from any part of the `u32` range — at the length
        /// `literal_size` predicts and the head declares, and read the
        /// same when split across slices anywhere.
        #[test]
        fn edge_literal_round_trip(
            edges in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..60),
            near in proptest::collection::btree_set((0u32..100, 0u32..100, 1u32..1000), 0..50),
            cut in any::<usize>(),
        ) {
            for v in [edges.clone(), near.iter().copied().collect()] {
                let p = IndexPayload::Edges(v);
                let mut w = ByteWriter::new();
                encode_literal(&p, &mut w);
                let bytes = w.as_slice();
                prop_assert_eq!(bytes.len(), literal_size(&p));
                let RecordHead::Literal(len) = read_head(bytes).unwrap() else {
                    panic!("a literal's head");
                };
                prop_assert_eq!(len, bytes.len());
                prop_assert_eq!(decode_bytes(bytes, &[]), p.clone());
                let at = (MAX_HEAD_BYTES + cut % bytes.len()).min(bytes.len());
                let (first, rest) = bytes.split_at(at);
                let carries = rest.chunks(1 + cut % 7).map(Ok);
                prop_assert_eq!(decode_literal(first, carries).unwrap(), p);
            }
        }

        /// An edge delta decodes, against its reference, to the union of
        /// the two sets, which covers the record; it is written only when
        /// smaller than the literal.
        #[test]
        fn edge_delta_round_trip(
            mine in proptest::collection::btree_set((0u32..300, 0u32..300, 1u32..70_000), 0..60),
            reference in proptest::collection::btree_set((0u32..300, 0u32..300, 1u32..70_000), 0..60),
            shared in proptest::collection::btree_set((0u32..300, 0u32..300, 1u32..70_000), 0..80),
        ) {
            let union = |a: &std::collections::BTreeSet<EdgeTriple>| -> Vec<EdgeTriple> {
                a.union(&shared).copied().collect()
            };
            let payload = IndexPayload::Edges(union(&mine));
            let refs = vec![IndexPayload::Edges(union(&reference))];
            if let Some(enc) = try_delta(&payload, &refs, 0) {
                prop_assert!(enc.bytes.len() < literal_size(&payload));
                prop_assert_eq!(decode_bytes(&enc.bytes, &refs), enc.decoded.clone());
                let want: std::collections::BTreeSet<EdgeTriple> =
                    mine.union(&reference).chain(&shared).copied().collect();
                prop_assert_eq!(enc.decoded, IndexPayload::Edges(want.into_iter().collect()));
            }
        }

        /// Every `u32` has one varint, of the length `varint_size` says;
        /// the zigzag map is a bijection.
        #[test]
        fn varints_round_trip(v in any::<u32>(), d in any::<i32>()) {
            let mut w = ByteWriter::new();
            put_varint(&mut w, v);
            prop_assert_eq!(w.len(), varint_size(v));
            let mut c = Cursor::of(w.as_slice());
            prop_assert_eq!(c.varint().unwrap(), v);
            prop_assert_eq!(c.left, 0);
            prop_assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    /// Forged dense records are errors: a varint with a trailing zero
    /// group, one of six bytes or past `u32::MAX`, one the record ends
    /// inside, a triple count the body cannot hold, and body bytes past
    /// the last triple.
    #[test]
    fn forged_dense_records_are_errors() {
        for forged in [
            &[0x80, 0x00][..],
            &[0xff, 0x80, 0x00],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
            &[0xff, 0xff, 0xff, 0xff, 0x10],
            &[0x80],
            &[],
        ] {
            assert!(Cursor::of(forged).varint().is_err(), "{forged:x?}");
        }
        assert_eq!(
            Cursor::of(&[0xff, 0xff, 0xff, 0xff, 0x0f])
                .varint()
                .unwrap(),
            u32::MAX
        );
        let literal = |body: &[u8]| [&[KIND_EDGES_LITERAL, body.len() as u8][..], body].concat();
        // one triple (1, 2, 3) is [1][zigzag 1 = 2][3]
        assert_eq!(
            decode_bytes(&literal(&[1, 1, 2, 3]), &[]),
            IndexPayload::Edges(vec![(1, 2, 3)])
        );
        for body in [
            &[2, 1, 2, 3][..],      // two triples in three bytes
            &[1, 1, 2, 3, 0],       // a byte past the triple
            &[1, 1, 2, 0x83],       // the weight runs past the body
            &[1, 1, 2, 0x83, 0x00], // and with its last group zero
        ] {
            assert!(decode(&literal(body), &[]).is_err(), "{body:?}");
        }
        // the head declares more than `rec` and its carries hold
        let rec = literal(&[1, 1, 2, 3]);
        assert!(decode_literal(&rec[..4], std::iter::empty()).is_err());
        // a delta's triple count past its record
        let refs = [IndexPayload::Edges(vec![])];
        assert!(decode(&[KIND_EDGES_DELTA, 0, 0, 2, 1, 2, 3], &refs).is_err());
        assert_eq!(
            decode(&[KIND_EDGES_DELTA, 0, 0, 1, 1, 2, 3], &refs).unwrap(),
            IndexPayload::Edges(vec![(1, 2, 3)])
        );
    }
}
