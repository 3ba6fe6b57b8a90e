//! Scheme implementations: the paper's CI/PI/HY/PI* (index family) and the
//! LM/AF/OBF baselines. All seven build into a
//! [`crate::engine::Database`] and query through a
//! [`crate::engine::QuerySession`] — one build API, one query API, one
//! meter/trace plumbing. The LM/AF interleaved searches run on the CSR
//! client arena of [`crate::subgraph`]; their original `HashMap`
//! implementations are retained under `lm::reference` / `af::reference` for
//! the differential property suites.

pub mod af;
pub mod index_scheme;
pub mod lm;
pub(crate) mod obf;
pub(crate) mod plan_probe;
