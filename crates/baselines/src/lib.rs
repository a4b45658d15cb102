//! Baseline protocols from the paper's discussion sections.
//!
//! These exist to reproduce the paper's *negative* results — each one fails
//! in exactly the way §1.2–1.3.1 describes:
//!
//! * [`Attempt1`] — non-interactive leader election: sound against an
//!   oblivious delete-only adversary, but an adaptive adversary that inserts
//!   or deletes a **single** signal-carrying agent per epoch drives the
//!   population to collapse or explosion ([`attempt1::SignalFlooder`],
//!   [`attempt1::SignalSuppressor`]),
//! * [`Attempt2`] — independent coloring: no special states to attack, but
//!   the restoring force is `Θ(1)` per epoch, so the population random-walks
//!   away from the target *even with no adversary at all*,
//! * [`Empty`] — the do-nothing protocol (re-exported from `popstab-sim`):
//!   perfectly stable without an adversary, helpless with one,
//! * [`HighMemory`] — the unique-ID protocol of §1.2: with unbounded memory
//!   it counts the population outright and is stable under deletions, but
//!   adversarial *insertions* of forged ID sets break it — which is why the
//!   paper calls the low-memory insert+delete setting the interesting one.
//!
//! Baselines are simulation probes, not memory-faithful artifacts: they use
//! floating-point thresholds and (for [`HighMemory`]) unbounded sets, and
//! document where they exceed the paper's agent model.

pub mod attempt1;
pub mod attempt2;
pub mod highmem;

pub use attempt1::Attempt1;
pub use attempt2::Attempt2;
pub use highmem::HighMemory;
pub use popstab_sim::protocols::Inert as Empty;
