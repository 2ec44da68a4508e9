//! Cost-adaptive provider selection: per-size-bucket online re-ranking
//! of candidate providers from a channel's live [`CostProfile`].

use std::collections::BTreeMap;

use hydra_obs::Histogram;

use super::observe::ProviderMetrics;
use super::{Channel, ChannelCost, CostProfile};

/// Policy knobs for online, per-size-bucket provider selection on a
/// cost-adaptive channel (see
/// [`super::ChannelExecutive::create_channel_adaptive`]).
///
/// All decisions are functions of the channel's own [`CostProfile`]
/// and sim-time traffic, so selection is deterministic and
/// byte-reproducible: same traffic, same choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptivePolicy {
    /// Messages a size bucket must accumulate before its first
    /// re-evaluation; colder buckets keep the static advertised-cost
    /// argmin.
    pub min_samples: u64,
    /// Messages between re-evaluations of a bucket: selection is only
    /// reconsidered at these epoch boundaries, never mid-epoch.
    pub epoch: u64,
    /// Hysteresis numerator: a challenger wins only when its estimated
    /// cost times `hysteresis_den` is at most the incumbent's times
    /// `hysteresis_num` (7/8 = the challenger must be ≥ 12.5% better).
    pub hysteresis_num: u64,
    /// Hysteresis denominator (see `hysteresis_num`).
    pub hysteresis_den: u64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            min_samples: 8,
            epoch: 16,
            hysteresis_num: 7,
            hysteresis_den: 8,
        }
    }
}

/// Online selection state of a cost-adaptive channel: the live
/// candidate providers and the per-size-bucket incumbents.
#[derive(Debug)]
pub(super) struct AdaptiveState {
    /// `(name, advertised cost)` of every capable provider, in
    /// registration order (the deterministic tie-break order).
    pub(super) candidates: Vec<(String, ChannelCost)>,
    /// Parallel to `candidates`: each candidate's recorder handles.
    pub(super) metrics: Vec<ProviderMetrics>,
    pub(super) policy: AdaptivePolicy,
    /// Active candidate index per size bucket (keyed by the bucket's
    /// upper bound, as in [`CostProfile::size_bucket`]).
    pub(super) selected: BTreeMap<u64, usize>,
    /// Epoch-boundary re-selections that actually changed a bucket's
    /// provider.
    pub(super) switches: u64,
}

impl AdaptiveState {
    /// Fresh selection state over `candidates` (with their recorder
    /// handles `metrics`) under `policy`.
    pub(super) fn new(
        candidates: Vec<(String, ChannelCost)>,
        metrics: Vec<ProviderMetrics>,
        policy: AdaptivePolicy,
    ) -> Self {
        AdaptiveState {
            candidates,
            metrics,
            policy,
            selected: BTreeMap::new(),
            switches: 0,
        }
    }

    /// Index of the candidate with the lowest unloaded advertised
    /// latency for a `bytes`-sized message (ties keep the earliest
    /// registration).
    fn static_default(&self, bytes: usize) -> usize {
        self.candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, c))| c.latency(bytes))
            .map_or(0, |(i, _)| i)
    }
}

impl Channel {
    /// Whether this channel re-selects its provider online from the
    /// live cost profile.
    pub fn is_adaptive(&self) -> bool {
        self.adaptive.is_some()
    }

    /// Epoch-boundary provider switches performed so far (zero on a
    /// fixed-provider channel).
    pub fn provider_switches(&self) -> u64 {
        self.adaptive.as_ref().map_or(0, |s| s.switches)
    }

    /// Names of the live candidate providers of an adaptive channel
    /// (empty on a fixed-provider channel), in registration order.
    pub fn candidate_providers(&self) -> Vec<&str> {
        self.adaptive.as_ref().map_or_else(Vec::new, |s| {
            s.candidates.iter().map(|(n, _)| n.as_str()).collect()
        })
    }

    /// Online provider selection for the next send of `bytes`: picks
    /// (and possibly re-picks) the active candidate for the payload's
    /// size bucket from the live [`CostProfile`], then installs it as
    /// the channel's current provider, cost and recorder handles. No-op
    /// on fixed channels.
    ///
    /// A cold bucket (fewer than [`AdaptivePolicy::min_samples`]
    /// observations) uses the static argmin of the advertised unloaded
    /// latency. Warm buckets re-rank only at epoch boundaries: when the
    /// observed p50 shows the pipe is saturated (≥ 2× the incumbent's
    /// unloaded latency, i.e. queueing dominates), candidates are
    /// compared by their *streaming* marginal latency — where a
    /// double-buffered provider's hidden launch pays off — otherwise by
    /// unloaded latency. The incumbent keeps the bucket unless a
    /// challenger clears the policy's hysteresis margin, so selection
    /// cannot flap.
    pub(super) fn select_provider(&mut self, bytes: usize) {
        let Some(state) = self.adaptive.as_mut() else {
            return;
        };
        let bucket = CostProfile::size_bucket(bytes);
        #[allow(clippy::cast_possible_truncation)]
        let rep = bucket as usize;
        let idx = match state.selected.get(&bucket) {
            None => {
                let idx = state.static_default(rep);
                state.selected.insert(bucket, idx);
                idx
            }
            Some(&incumbent) => {
                let hist = self.profile.latency_for(rep);
                let count = hist.map_or(0, Histogram::count);
                let due = count >= state.policy.min_samples
                    && (count - state.policy.min_samples).is_multiple_of(state.policy.epoch);
                if due {
                    let observed_p50 = hist.and_then(Histogram::p50).unwrap_or(0);
                    let inc_cost = state.candidates[incumbent].1;
                    let hot = observed_p50 >= inc_cost.latency(rep).as_nanos().saturating_mul(2);
                    let est = |c: &ChannelCost| {
                        if hot {
                            c.streaming_latency(rep).as_nanos()
                        } else {
                            c.latency(rep).as_nanos()
                        }
                    };
                    let challenger = state
                        .candidates
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (_, c))| est(c))
                        .map_or(incumbent, |(i, _)| i);
                    let wins = challenger != incumbent
                        && u128::from(est(&state.candidates[challenger].1))
                            * u128::from(state.policy.hysteresis_den)
                            <= u128::from(est(&state.candidates[incumbent].1))
                                * u128::from(state.policy.hysteresis_num);
                    if wins {
                        state.selected.insert(bucket, challenger);
                        state.switches += 1;
                        self.recorder.counter_incr(
                            "channel.provider_switch",
                            &state.candidates[challenger].0,
                        );
                        challenger
                    } else {
                        incumbent
                    }
                } else {
                    incumbent
                }
            }
        };
        let (name, cost) = &state.candidates[idx];
        if *name != self.provider_name {
            self.provider_name.clone_from(name);
            self.cost = *cost;
            self.metrics = state.metrics[idx];
        }
    }
}
