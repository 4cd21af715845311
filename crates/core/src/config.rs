//! LoopFrog configuration: the core and memory parameters from `lf-uarch`
//! plus the SSB, conflict-detector, and iteration-packing knobs of Table 1.

use crate::deselect::DeselectConfig;
use lf_uarch::{CoreConfig, MemConfig};

/// Speculative state buffer and conflict detector parameters (Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct SsbConfig {
    /// Total granule-cache capacity in bytes across all slices (8 KiB).
    pub size_bytes: usize,
    /// SSB cache line size in bytes (32 B).
    pub line: usize,
    /// Conflict-tracking granule size in bytes (4 B). Must divide `line`.
    pub granule: usize,
    /// Set associativity of each slice; `None` models a fully associative
    /// slice (the paper's headline config: "associativity not modelled").
    pub assoc: Option<usize>,
    /// Shared victim-buffer entries easing low associativity (§6.6).
    pub victim_entries: usize,
    /// Speculative read latency in cycles, including the parallel L1D
    /// lookup (3 cycles).
    pub read_latency: u64,
    /// Speculative write (drain into slice) latency in cycles (1 cycle).
    pub write_latency: u64,
    /// Conflict-checking latency charged before a threadlet commits
    /// (4 cycles).
    pub conflict_check_latency: u64,
    /// Conflict-set implementation: `None` models the paper's idealized
    /// Bloom filters (exact sets, no false positives; Table 1);
    /// `Some((bits, hashes))` uses real Bloom filters of that geometry.
    pub bloom: Option<(usize, u32)>,
    /// Lines flushed to the memory system per cycle after commit, using
    /// spare bandwidth.
    pub flush_lines_per_cycle: usize,
}

impl Default for SsbConfig {
    fn default() -> SsbConfig {
        SsbConfig {
            size_bytes: 8 << 10,
            line: 32,
            granule: 4,
            assoc: None,
            victim_entries: 0,
            read_latency: 3,
            write_latency: 1,
            conflict_check_latency: 4,
            bloom: None,
            flush_lines_per_cycle: 1,
        }
    }
}

impl SsbConfig {
    /// Granules per SSB line.
    pub fn granules_per_line(&self) -> usize {
        self.line / self.granule
    }

    /// Lines per slice given `threadlets` contexts.
    pub fn lines_per_slice(&self, threadlets: usize) -> usize {
        (self.size_bytes / self.line / threadlets).max(1)
    }
}

/// Iteration packing parameters (paper §4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct PackingConfig {
    /// Master enable; the §6.5 ablation turns this off.
    pub enabled: bool,
    /// EMA smoothing factor α for the epoch-size predictor.
    pub alpha: f64,
    /// Target epoch size in instructions: the smallest packing factor `P`
    /// with `P × S` above this is chosen.
    pub target_epoch_size: u64,
    /// Maximum allowed packing factor.
    pub max_factor: u32,
    /// Strided value-predictor confidence (0..=7) required to pack.
    pub confidence_threshold: u8,
}

impl Default for PackingConfig {
    fn default() -> PackingConfig {
        PackingConfig {
            enabled: true,
            alpha: 0.7,
            target_epoch_size: 16,
            max_factor: 25,
            confidence_threshold: 4,
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopFrogConfig {
    /// Pipeline parameters.
    pub core: CoreConfig,
    /// Memory system parameters.
    pub mem: MemConfig,
    /// SSB and conflict detector parameters.
    pub ssb: SsbConfig,
    /// Iteration packing parameters.
    pub packing: PackingConfig,
    /// Dynamic run-time loop deselection (paper §5.1; off by default, as
    /// the paper's prototype uses static selection).
    pub deselect: DeselectConfig,
    /// Master speculation switch: `false` reproduces the paper's baseline
    /// run in which hints are ignored (treated as NOPs).
    pub speculation: bool,
    /// Cycles between a detach spawning a threadlet and the child's first
    /// fetch (front-end spawn overhead).
    pub spawn_latency: u64,
    /// Hard limit on simulated instructions (safety fuel).
    pub max_insts: u64,
    /// Hard limit on simulated cycles (safety fuel).
    pub max_cycles: u64,
}

impl Default for LoopFrogConfig {
    /// The paper's headline 4-threadlet LoopFrog configuration.
    fn default() -> LoopFrogConfig {
        LoopFrogConfig {
            core: CoreConfig::default(),
            mem: MemConfig::default(),
            ssb: SsbConfig::default(),
            packing: PackingConfig::default(),
            deselect: DeselectConfig::default(),
            speculation: true,
            spawn_latency: 4,
            max_insts: u64::MAX,
            max_cycles: u64::MAX,
        }
    }
}

impl LoopFrogConfig {
    /// The baseline configuration: same core, hints treated as NOPs, one
    /// threadlet (paper §6.1: "In the baseline run, hints are ignored").
    pub fn baseline() -> LoopFrogConfig {
        LoopFrogConfig {
            core: CoreConfig::baseline(),
            speculation: false,
            ..LoopFrogConfig::default()
        }
    }

    /// A stable canonical fingerprint over *every* configuration field,
    /// plus the interval-sampling period, which shapes the
    /// [`crate::SimResult`] too. Combined with the annotated program's code
    /// fingerprint and the workload scale, this identifies a simulation:
    /// equal fingerprints ⇒ identical results.
    ///
    /// Any new configuration field MUST be fed here, otherwise the
    /// experiment engine's cache will serve stale results when that field
    /// changes; `fingerprint_covers_every_field` below guards the known
    /// ones.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = lf_stats::Fingerprint::new();
        fingerprint_core(&mut fp, &self.core);
        fingerprint_mem(&mut fp, &self.mem);
        fingerprint_ssb(&mut fp, &self.ssb);
        fingerprint_packing(&mut fp, &self.packing);
        fingerprint_deselect(&mut fp, &self.deselect);
        fp.bool(self.speculation)
            .u64(self.spawn_latency)
            .u64(self.max_insts)
            .u64(self.max_cycles)
            // Two retired config fields sat here: the interval period, then
            // the flight-recorder depth. Every campaign ran with `Some(8192)`
            // and `0`, so hashing those values in the same positions keeps
            // every fingerprint (run-cache entry names, `failures.json`
            // records) valid.
            .opt_u64(Some(crate::telemetry::INTERVAL_CYCLES))
            .usize(0);
        fp.finish()
    }
}

fn fingerprint_core(fp: &mut lf_stats::Fingerprint, c: &CoreConfig) {
    fp.str("core")
        .usize(c.width)
        .usize(c.commit_width)
        .usize(c.rob_size)
        .usize(c.iq_size)
        .usize(c.lq_size)
        .usize(c.sq_size)
        .usize(c.fetch_queue_size)
        .usize(c.int_phys_regs)
        .usize(c.fp_phys_regs)
        .usize(c.fu.int_alu)
        .usize(c.fu.int_mul_div)
        .usize(c.fu.fp)
        .usize(c.fu.fp_div_sqrt)
        .usize(c.fu.load)
        .usize(c.fu.store)
        .u64(c.frontend_latency)
        .usize(c.threadlets);
}

fn fingerprint_cache(fp: &mut lf_stats::Fingerprint, c: &lf_uarch::CacheConfig) {
    fp.usize(c.size).usize(c.ways).usize(c.line).u64(c.hit_latency).usize(c.mshrs);
}

fn fingerprint_mem(fp: &mut lf_stats::Fingerprint, m: &MemConfig) {
    fp.str("mem");
    fingerprint_cache(fp, &m.l1i);
    fingerprint_cache(fp, &m.l1d);
    fingerprint_cache(fp, &m.l2);
    fp.u64(m.dram_latency).usize(m.l1d_prefetch_degree).usize(m.l2_prefetch_degree);
}

fn fingerprint_ssb(fp: &mut lf_stats::Fingerprint, s: &SsbConfig) {
    fp.str("ssb")
        .usize(s.size_bytes)
        .usize(s.line)
        .usize(s.granule)
        .opt_usize(s.assoc)
        .usize(s.victim_entries)
        .u64(s.read_latency)
        .u64(s.write_latency)
        .u64(s.conflict_check_latency)
        .opt_u64(s.bloom.map(|(bits, hashes)| ((bits as u64) << 8) | hashes as u64))
        .usize(s.flush_lines_per_cycle);
}

fn fingerprint_packing(fp: &mut lf_stats::Fingerprint, p: &PackingConfig) {
    fp.str("packing")
        .bool(p.enabled)
        .f64(p.alpha)
        .u64(p.target_epoch_size)
        .u64(p.max_factor as u64)
        .u64(p.confidence_threshold as u64);
}

fn fingerprint_deselect(fp: &mut lf_stats::Fingerprint, d: &DeselectConfig) {
    fp.str("deselect")
        .bool(d.enabled)
        .u64(d.warmup_epochs)
        .f64(d.max_conflict_rate)
        .f64(d.max_overflow_rate)
        .f64(d.min_epoch_insts)
        .u64(d.retry_after);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ssb_matches_table_1() {
        let s = SsbConfig::default();
        assert_eq!(s.size_bytes, 8192);
        assert_eq!(s.granules_per_line(), 8);
        assert_eq!(s.lines_per_slice(4), 64);
    }

    #[test]
    fn baseline_disables_speculation() {
        let c = LoopFrogConfig::baseline();
        assert!(!c.speculation);
        assert_eq!(c.core.threadlets, 1);
    }

    #[test]
    fn fingerprint_is_deterministic_and_distinguishes_presets() {
        assert_eq!(
            LoopFrogConfig::default().fingerprint(),
            LoopFrogConfig::default().fingerprint()
        );
        assert_ne!(
            LoopFrogConfig::default().fingerprint(),
            LoopFrogConfig::baseline().fingerprint()
        );
    }

    #[test]
    fn fingerprint_covers_every_field() {
        // Mutate one field at a time; every mutation must move the hash.
        type Mutation = Box<dyn Fn(&mut LoopFrogConfig)>;
        let base = LoopFrogConfig::default().fingerprint();
        let mutations: Vec<Mutation> = vec![
            Box::new(|c| c.core.width += 1),
            Box::new(|c| c.core.commit_width += 1),
            Box::new(|c| c.core.rob_size += 1),
            Box::new(|c| c.core.iq_size += 1),
            Box::new(|c| c.core.lq_size += 1),
            Box::new(|c| c.core.sq_size += 1),
            Box::new(|c| c.core.fetch_queue_size += 1),
            Box::new(|c| c.core.int_phys_regs += 1),
            Box::new(|c| c.core.fp_phys_regs += 1),
            Box::new(|c| c.core.fu.int_alu += 1),
            Box::new(|c| c.core.fu.int_mul_div += 1),
            Box::new(|c| c.core.fu.fp += 1),
            Box::new(|c| c.core.fu.fp_div_sqrt += 1),
            Box::new(|c| c.core.fu.load += 1),
            Box::new(|c| c.core.fu.store += 1),
            Box::new(|c| c.core.frontend_latency += 1),
            Box::new(|c| c.core.threadlets += 1),
            Box::new(|c| c.mem.l1i.size *= 2),
            Box::new(|c| c.mem.l1d.ways += 1),
            Box::new(|c| c.mem.l2.hit_latency += 1),
            Box::new(|c| c.mem.dram_latency += 1),
            Box::new(|c| c.mem.l1d_prefetch_degree += 1),
            Box::new(|c| c.mem.l2_prefetch_degree += 1),
            Box::new(|c| c.ssb.size_bytes *= 2),
            Box::new(|c| c.ssb.line *= 2),
            Box::new(|c| c.ssb.granule *= 2),
            Box::new(|c| c.ssb.assoc = Some(8)),
            Box::new(|c| c.ssb.victim_entries = 8),
            Box::new(|c| c.ssb.read_latency += 1),
            Box::new(|c| c.ssb.write_latency += 1),
            Box::new(|c| c.ssb.conflict_check_latency += 1),
            Box::new(|c| c.ssb.bloom = Some((4096, 4))),
            Box::new(|c| c.ssb.flush_lines_per_cycle += 1),
            Box::new(|c| c.packing.enabled = !c.packing.enabled),
            Box::new(|c| c.packing.alpha += 0.1),
            Box::new(|c| c.packing.target_epoch_size += 1),
            Box::new(|c| c.packing.max_factor += 1),
            Box::new(|c| c.packing.confidence_threshold += 1),
            Box::new(|c| c.deselect.enabled = !c.deselect.enabled),
            Box::new(|c| c.deselect.warmup_epochs += 1),
            Box::new(|c| c.deselect.max_conflict_rate += 0.5),
            Box::new(|c| c.deselect.max_overflow_rate += 0.5),
            Box::new(|c| c.deselect.min_epoch_insts += 1.0),
            Box::new(|c| c.deselect.retry_after += 1),
            Box::new(|c| c.speculation = !c.speculation),
            Box::new(|c| c.spawn_latency += 1),
            Box::new(|c| c.max_insts = 1 << 40),
            Box::new(|c| c.max_cycles = 1 << 40),
        ];
        for (i, m) in mutations.iter().enumerate() {
            let mut c = LoopFrogConfig::default();
            m(&mut c);
            assert_ne!(base, c.fingerprint(), "mutation {i} did not change the fingerprint");
        }
    }
}
