//! Behavioural models of the DESC support circuits (paper Fig. 8).
//!
//! * [`ToggleGenerator`] turns an enable pulse into a level toggle on
//!   its output wire (a T-flip-flop driven by the transfer clock).
//! * [`ToggleDetector`] recovers a one-cycle pulse from a level toggle
//!   (an XOR of the input with a delayed copy of itself).
//! * [`ToggleRegenerator`] forwards toggles from one of two H-tree
//!   branches upstream, remembering the previous state of each segment
//!   so shared vertical-tree wires stay consistent (paper §3.2).
//!
//! These are cycle-granularity models: one call to `step` is one clock
//! cycle.

/// T-flip-flop toggle generator: the output level flips in every cycle
/// where `enable` is asserted (paper Fig. 8-a).
///
/// # Examples
///
/// ```
/// use desc_core::circuits::ToggleGenerator;
///
/// let mut tg = ToggleGenerator::new();
/// assert_eq!(tg.step(true), true);   // 0 → 1
/// assert_eq!(tg.step(false), true);  // held
/// assert_eq!(tg.step(true), false);  // 1 → 0
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ToggleGenerator {
    level: bool,
}

impl ToggleGenerator {
    /// A generator with its output at logic zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances one cycle; toggles the output when `enable` is set.
    /// Returns the new output level.
    pub fn step(&mut self, enable: bool) -> bool {
        if enable {
            self.level = !self.level;
        }
        self.level
    }

    /// Current output level.
    #[must_use]
    pub fn level(&self) -> bool {
        self.level
    }
}

/// Toggle detector: produces a one-cycle pulse whenever its input
/// changes level (paper Fig. 8-b — XOR with a delayed copy).
///
/// # Examples
///
/// ```
/// use desc_core::circuits::ToggleDetector;
///
/// let mut td = ToggleDetector::new();
/// assert!(!td.step(false));
/// assert!(td.step(true));   // edge detected
/// assert!(!td.step(true));  // level held: no pulse
/// assert!(td.step(false));  // falling edge also detected
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ToggleDetector {
    previous: bool,
}

impl ToggleDetector {
    /// A detector whose delayed input starts at logic zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances one cycle with the observed `input` level; returns
    /// `true` exactly when the level changed since the previous cycle.
    pub fn step(&mut self, input: bool) -> bool {
        let pulse = input != self.previous;
        self.previous = input;
        pulse
    }
}

/// Toggle regenerator for shared H-tree segments (paper Fig. 8-c).
///
/// Two downstream branches (only one active per access, selected by the
/// address bits) merge onto one upstream wire. The regenerator latches
/// the selected branch's level and re-drives the upstream wire so that
/// upstream toggles mirror the active branch's toggles even though the
/// *other* branch may hold a different level.
///
/// # Examples
///
/// ```
/// use desc_core::circuits::ToggleRegenerator;
///
/// let mut tr = ToggleRegenerator::new();
/// // Branch 0 toggles high while selected: upstream follows.
/// assert!(tr.step(true, false, 0));
/// // Switching the select to branch 1 (still low) must not toggle
/// // upstream: the regenerator re-drives from its latched state.
/// assert!(!tr.upstream_toggled(false, 1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ToggleRegenerator {
    upstream: bool,
    /// Last observed level per branch.
    branch_levels: [bool; 2],
}

impl ToggleRegenerator {
    /// A regenerator with all wires at logic zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances one cycle observing both branch levels and the branch
    /// `select`; the upstream wire toggles whenever the *selected*
    /// branch toggled. Returns the upstream level.
    ///
    /// # Panics
    ///
    /// Panics if `select` is not 0 or 1.
    pub fn step(&mut self, branch0: bool, branch1: bool, select: usize) -> bool {
        assert!(select < 2, "branch select {select} out of range");
        let levels = [branch0, branch1];
        let toggled = levels[select] != self.branch_levels[select];
        self.branch_levels = levels;
        if toggled {
            self.upstream = !self.upstream;
        }
        self.upstream
    }

    /// Like [`ToggleRegenerator::step`] for a single observed branch
    /// level, returning whether the upstream wire toggled this cycle.
    pub fn upstream_toggled(&mut self, level: bool, select: usize) -> bool {
        assert!(select < 2, "branch select {select} out of range");
        let toggled = level != self.branch_levels[select];
        self.branch_levels[select] = level;
        if toggled {
            self.upstream = !self.upstream;
        }
        toggled
    }

    /// Current upstream level.
    #[must_use]
    pub fn upstream(&self) -> bool {
        self.upstream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_toggles_only_when_enabled() {
        let mut tg = ToggleGenerator::new();
        let outputs: Vec<bool> = [true, true, false, true].iter().map(|&e| tg.step(e)).collect();
        assert_eq!(outputs, vec![true, false, false, true]);
    }

    #[test]
    fn generator_detector_roundtrip() {
        // A pulse train through generator + detector reproduces itself
        // one cycle later — the paper's synchronization-strobe path.
        let mut tg = ToggleGenerator::new();
        let mut td = ToggleDetector::new();
        let pulses = [true, false, true, true, false, false, true, false];
        let mut recovered = Vec::new();
        for &p in &pulses {
            let level = tg.step(p);
            recovered.push(td.step(level));
        }
        assert_eq!(recovered.as_slice(), pulses.as_slice());
    }

    #[test]
    fn detector_sees_both_edges() {
        // Half-frequency strobe: level toggles every cycle → pulse
        // every cycle (both rising and falling edges trigger, §3.1).
        let mut td = ToggleDetector::new();
        let mut level = false;
        let mut pulses = 0;
        for _ in 0..10 {
            level = !level;
            if td.step(level) {
                pulses += 1;
            }
        }
        assert_eq!(pulses, 10);
    }

    #[test]
    fn regenerator_forwards_selected_branch_only() {
        let mut tr = ToggleRegenerator::new();
        // Branch 1 toggles while branch 0 selected: upstream must hold.
        tr.step(false, true, 0);
        assert!(!tr.upstream());
        // Branch 0 toggles while selected: upstream follows.
        tr.step(true, true, 0);
        assert!(tr.upstream());
    }

    #[test]
    fn regenerator_branch_switch_does_not_glitch() {
        let mut tr = ToggleRegenerator::new();
        // Drive branch 0 high (selected), then switch select to branch
        // 1 whose level is still low — no upstream toggle on the
        // switch itself.
        assert!(tr.upstream_toggled(true, 0));
        assert!(!tr.upstream_toggled(false, 1));
        assert!(tr.upstream());
        // Now branch 1 toggles: upstream toggles again.
        assert!(tr.upstream_toggled(true, 1));
        assert!(!tr.upstream());
    }

    #[test]
    fn regenerator_counts_match_toggles() {
        // N toggles on the active branch produce exactly N upstream
        // toggles regardless of the idle branch's activity.
        let mut tr = ToggleRegenerator::new();
        let mut level = false;
        let mut upstream_toggles = 0;
        for i in 0..17 {
            level = !level;
            // Idle branch flaps too, but is never selected.
            if tr.upstream_toggled(level, 0) {
                upstream_toggles += 1;
            }
            let _ = i;
        }
        assert_eq!(upstream_toggles, 17);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn regenerator_rejects_bad_select() {
        let mut tr = ToggleRegenerator::new();
        tr.step(false, false, 2);
    }
}
