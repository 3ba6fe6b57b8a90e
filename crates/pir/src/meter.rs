//! Simulated-time accounting, mirroring the response-time decomposition of
//! Table 3: PIR time + communication time + client-side computation (plus a
//! server-computation bucket used by the OBF baseline).
//!
//! The meter is deliberately *batch-blind*: a round executed as one server
//! batch is charged exactly what the same fetches issued one by one would
//! be — one Table 2 retrieval cost and one page transfer per page, in issue
//! order, plus one round. Batching is a server-side execution strategy, not
//! a discount; the model's fidelity to the paper is unchanged.

use crate::cost::CostBreakdown;

/// Accumulated costs for one query (or a whole workload). `PartialEq`
/// compares every component exactly — the differential suites hold meters
/// bit-identical across transports and (with retries) across link quality.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Meter {
    /// PIR page-retrieval time (the dominant component for our schemes).
    pub pir: CostBreakdown,
    /// Communication time: per-round RTTs plus byte transfer.
    pub comm_s: f64,
    /// Server-side plaintext computation (OBF's shortest-path evaluations;
    /// zero for the PIR schemes, which do not compute at the server).
    pub server_s: f64,
    /// Client-side computation (measured wall time of the client algorithm).
    pub client_s: f64,
    /// Bytes pushed through the client link.
    pub bytes_transferred: u64,
    /// Protocol rounds.
    pub rounds: u32,
    /// Transport request/response exchanges (wire round-trips): the query
    /// open, each full download, and each round batch — including every
    /// sub-round exchange of a round whose page list is discovered in
    /// stages (the HY continuation walk). Transport-independent: in-process
    /// execution counts the exchanges the wire transport would perform.
    /// Unlike `rounds`, this is a cost-model observable only — it carries
    /// no RTT charge, because rounds stream over the persistent connection.
    pub exchanges: u32,
    /// PIR fetches per file id (indexed by `FileId.0`).
    pub fetches_per_file: Vec<u64>,
}

impl Meter {
    /// Fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total response time in seconds — "the elapsed time from query
    /// submission until obtaining the shortest path result" (§7.1).
    pub fn response_time_s(&self) -> f64 {
        self.pir.total_s() + self.comm_s + self.server_s + self.client_s
    }

    /// Records `n` PIR fetches against file `file_idx`.
    pub(crate) fn record_fetches(&mut self, file_idx: usize, n: u64) {
        if self.fetches_per_file.len() <= file_idx {
            self.fetches_per_file.resize(file_idx + 1, 0);
        }
        self.fetches_per_file[file_idx] += n;
    }

    /// Total PIR fetches across files.
    pub fn total_fetches(&self) -> u64 {
        self.fetches_per_file.iter().sum()
    }

    /// Adds another meter (workload aggregation).
    pub fn add(&mut self, other: &Meter) {
        self.pir.add(other.pir);
        self.comm_s += other.comm_s;
        self.server_s += other.server_s;
        self.client_s += other.client_s;
        self.bytes_transferred += other.bytes_transferred;
        self.rounds += other.rounds;
        self.exchanges += other.exchanges;
        if self.fetches_per_file.len() < other.fetches_per_file.len() {
            self.fetches_per_file
                .resize(other.fetches_per_file.len(), 0);
        }
        for (i, &n) in other.fetches_per_file.iter().enumerate() {
            self.fetches_per_file[i] += n;
        }
    }

    /// Divides every component by `n` (workload averaging).
    pub fn scale_down(&self, n: u64) -> Meter {
        assert!(n > 0);
        let d = n as f64;
        Meter {
            pir: CostBreakdown {
                disk_s: self.pir.disk_s / d,
                scp_io_s: self.pir.scp_io_s / d,
                crypto_s: self.pir.crypto_s / d,
            },
            comm_s: self.comm_s / d,
            server_s: self.server_s / d,
            client_s: self.client_s / d,
            bytes_transferred: self.bytes_transferred / n,
            rounds: (u64::from(self.rounds) / n) as u32,
            exchanges: (u64::from(self.exchanges) / n) as u32,
            fetches_per_file: self.fetches_per_file.iter().map(|&f| f / n).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_time_sums_components() {
        let mut m = Meter::new();
        m.pir = CostBreakdown {
            disk_s: 1.0,
            scp_io_s: 2.0,
            crypto_s: 3.0,
        };
        m.comm_s = 4.0;
        m.server_s = 0.5;
        m.client_s = 0.25;
        assert!((m.response_time_s() - 10.75).abs() < 1e-12);
    }

    #[test]
    fn fetch_recording() {
        let mut m = Meter::new();
        m.record_fetches(2, 5);
        m.record_fetches(0, 1);
        m.record_fetches(2, 2);
        assert_eq!(m.fetches_per_file, vec![1, 0, 7]);
        assert_eq!(m.total_fetches(), 8);
    }

    #[test]
    fn aggregation_and_averaging() {
        let mut a = Meter::new();
        a.comm_s = 2.0;
        a.rounds = 4;
        a.record_fetches(1, 10);
        let mut b = Meter::new();
        b.comm_s = 4.0;
        b.rounds = 4;
        b.record_fetches(1, 20);
        b.record_fetches(3, 2);
        a.add(&b);
        assert_eq!(a.comm_s, 6.0);
        assert_eq!(a.rounds, 8);
        assert_eq!(a.fetches_per_file, vec![0, 30, 0, 2]);
        let avg = a.scale_down(2);
        assert_eq!(avg.comm_s, 3.0);
        assert_eq!(avg.rounds, 4);
        assert_eq!(avg.fetches_per_file, vec![0, 15, 0, 1]);
    }
}
