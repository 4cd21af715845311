//! What an armed run proves about its decision siblings (DESIGN.md §8.4).
//!
//! Three knobs steer a LoopFrog run only through the answers of one
//! structure each: the SSB's geometry (`size_bytes`, `assoc`,
//! `victim_entries`) through where a write allocates a line, the conflict
//! sets' Bloom filters (`ssb.bloom`) through their membership tests, and
//! dynamic deselection (`deselect`) through whether a region is suppressed.
//! Runs that differ only in these knobs take the same step as long as every
//! such answer agrees. An armed run ([`crate::LoopFrogCore::record_footprint`])
//! records its SSB footprint and follows each sibling filter geometry and
//! deselection config with a shadow that stops at its first differing
//! answer; the [`Footprint`] it returns admits exactly the siblings whose
//! every answer would have agreed.

use crate::config::LoopFrogConfig;
use crate::deselect::DeselectConfig;
use crate::ssb::SsbFootprint;

/// The decisions an armed run made, as far as its siblings' knobs could
/// change them: the lines every SSB slice epoch allocated, and the filter
/// geometries and deselection configs whose shadows never diverged.
#[derive(Debug, Clone, PartialEq)]
pub struct Footprint {
    lines: SsbFootprint,
    /// The run's own conflict sets and deselection.
    bloom: Option<(usize, u32)>,
    deselect: DeselectConfig,
    /// Shadowed filter geometries that answered every test alike.
    filters: Vec<(usize, u32)>,
    /// Shadowed deselection configs that never suppressed a region.
    deselectors: Vec<DeselectConfig>,
}

impl Footprint {
    /// The footprint of a run under `cfg` that allocated `lines`, whose
    /// shadows of `filters` and `deselectors` never diverged.
    pub(crate) fn new(
        lines: SsbFootprint,
        cfg: &LoopFrogConfig,
        filters: Vec<(usize, u32)>,
        deselectors: Vec<DeselectConfig>,
    ) -> Footprint {
        Footprint {
            lines,
            bloom: cfg.ssb.bloom,
            deselect: cfg.deselect.clone(),
            filters,
            deselectors,
        }
    }

    /// Whether a run under `cfg` would have taken every step the recorded
    /// run took, so its outcome is the recorded one: its SSB geometry fits
    /// the recorded lines ([`SsbFootprint::fits`]), its conflict sets are
    /// the run's own or a filter geometry whose shadow never diverged, and
    /// its deselection decides as the run's own (equal, or both off) or is
    /// a config whose shadow never suppressed a region.
    ///
    /// `cfg` must differ from the recorded run's config in nothing else.
    pub fn fits(&self, cfg: &LoopFrogConfig) -> bool {
        let (bloom, deselect) = (cfg.ssb.bloom, &cfg.deselect);
        self.lines.fits(&cfg.ssb, cfg.core.threadlets)
            && (bloom == self.bloom || bloom.is_some_and(|g| self.filters.contains(&g)))
            && (*deselect == self.deselect
                || !(deselect.enabled || self.deselect.enabled)
                || self.deselectors.contains(deselect))
    }

    /// Adds `other`'s decisions after this footprint's own, so the result
    /// fits exactly the configs both fit: the footprint of a run made of
    /// several armed simulations under one config, each starting from empty
    /// slices and sets (a sampled run's windows).
    pub fn append(&mut self, other: Footprint) {
        debug_assert!(
            (other.bloom, &other.deselect) == (self.bloom, &self.deselect),
            "footprints of different conflict sets or deselection do not join"
        );
        self.lines.append(other.lines);
        self.filters.retain(|g| other.filters.contains(g));
        self.deselectors.retain(|d| other.deselectors.contains(d));
    }
}
