//! Scheme implementations: the paper's CI/PI/HY/PI* (index family) and the
//! LM/AF/OBF baselines. All seven build into a
//! [`crate::engine::Database`] and query through a
//! [`crate::engine::QuerySession`] — one build API, one query API, one
//! meter/trace plumbing.
//!
//! LM and AF are two flavours of one region-fetch protocol (§4),
//! `baseline`: a header round, both host regions' pages in round two,
//! one region per data-dependent round of the interleaved search, then
//! dummy rounds up to a fixed budget of regions. The flavours differ only
//! in the record extra (landmark vectors or arc flags), the partitioner,
//! the bound of their one A* search (landmark, or zero over flag-pruned
//! arcs) and AF's fixed page group per region — LM's is one page. The
//! search runs on the client arena of [`crate::subgraph`]; the original
//! `HashMap` searches are retained as test code, `lm::reference` /
//! `af::reference`, for the differential property suites.

mod af;
pub(crate) mod baseline;
pub mod index_scheme;
mod lm;
pub(crate) mod obf;
