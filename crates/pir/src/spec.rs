//! System specification — the constants of Table 2 plus the PIR protocol's
//! structural limits (§3.2).

/// Hardware / link constants driving the simulated costs. Defaults are the
/// paper's Table 2 values (Seagate 7200rpm disk, IBM 4764 SCP, 3G client
/// link).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// Disk page size in bytes (Table 2: 4 KByte).
    pub page_size: usize,
    /// Disk seek time in seconds (Table 2: 11 ms).
    pub disk_seek_s: f64,
    /// Disk sequential read/write rate in bytes/s (Table 2: 125 MByte/s).
    pub disk_rate_bps: f64,
    /// SCP read/write rate in bytes/s (Table 2: 80 MByte/s).
    pub scp_io_rate_bps: f64,
    /// SCP encryption/decryption rate in bytes/s (Table 2: 10 MByte/s).
    pub crypto_rate_bps: f64,
    /// Client link round-trip time in seconds (Table 2: 700 ms).
    pub comm_rtt_s: f64,
    /// Client link bandwidth in bytes/s (Table 2: 384 kbit/s = 48 KByte/s).
    pub comm_rate_bps: f64,
    /// SCP RAM in bytes (IBM 4764: 32 MByte).
    pub scp_memory_bytes: u64,
    /// The protocol of \[36\] needs at least `c·√N` pages of SCP memory for an
    /// N-page file; `c` is "a parameter with a typical value of 10" (§3.2).
    pub scp_mem_factor: f64,
    /// Fixed page-operations per retrieval (session/request overhead) in the
    /// cost model — calibration constant, fixed together with
    /// `pir_ops_per_log2sq` so the 1 GB anchor holds (see [`crate::cost`]).
    pub pir_fixed_ops: f64,
    /// Page-operations per `log2(N)²` in the cost model — calibrated so a
    /// 1 GB file costs ≈1 s per retrieval, the paper's IBM 4764 anchor.
    pub pir_ops_per_log2sq: f64,
}

impl Default for SystemSpec {
    fn default() -> Self {
        SystemSpec {
            page_size: 4096,
            disk_seek_s: 0.011,
            disk_rate_bps: 125.0e6,
            scp_io_rate_bps: 80.0e6,
            crypto_rate_bps: 10.0e6,
            comm_rtt_s: 0.700,
            comm_rate_bps: 48.0 * 1024.0,
            scp_memory_bytes: 32 << 20,
            scp_mem_factor: 10.0,
            pir_fixed_ops: 200.0,
            pir_ops_per_log2sq: 2.75,
        }
    }
}

impl SystemSpec {
    /// Maximum number of pages per file the PIR interface supports: the SCP
    /// holds `c·√N` pages, so `N ≤ (mem_pages / c)²`. With the Table 2
    /// defaults this is ≈670 k pages ≈ 2.6 GB, matching the paper's "may
    /// support files up to 2.5 GByte".
    pub fn max_file_pages(&self) -> u64 {
        let mem_pages = self.scp_memory_bytes as f64 / self.page_size as f64;
        let root = mem_pages / self.scp_mem_factor;
        (root * root).floor() as u64
    }

    /// Maximum file size in bytes under [`SystemSpec::max_file_pages`].
    pub fn max_file_bytes(&self) -> u64 {
        self.max_file_pages() * self.page_size as u64
    }

    /// Seconds to push `bytes` through the client link (excluding RTT).
    pub fn transfer_s(&self, bytes: u64) -> f64 {
        bytes as f64 / self.comm_rate_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let s = SystemSpec::default();
        assert_eq!(s.page_size, 4096);
        assert_eq!(s.disk_seek_s, 0.011);
        assert_eq!(s.comm_rate_bps, 49152.0);
        assert_eq!(s.scp_memory_bytes, 33_554_432);
    }

    #[test]
    fn file_limit_matches_paper_claim() {
        let s = SystemSpec::default();
        // (8192 / 10)^2 = 671088.64 -> 671088 pages ≈ 2.56 GB
        assert_eq!(s.max_file_pages(), 671_088);
        let gb = s.max_file_bytes() as f64 / (1u64 << 30) as f64;
        assert!((2.4..2.7).contains(&gb), "limit {gb} GB should be ~2.5 GB");
    }

    #[test]
    fn transfer_time() {
        let s = SystemSpec::default();
        // one page over 48 KB/s ≈ 83 ms
        let t = s.transfer_s(4096);
        assert!((t - 0.0833).abs() < 0.001, "got {t}");
    }

    #[test]
    fn smaller_scp_means_smaller_files() {
        let s = SystemSpec {
            scp_memory_bytes: 16 << 20,
            ..Default::default()
        };
        assert!(s.max_file_pages() < SystemSpec::default().max_file_pages());
    }
}
