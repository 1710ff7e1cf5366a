//! Protocol configuration.

use crate::aggregate::AggregateKind;
use crate::AggregationError;

/// What initial state a node gives to an aggregation instance it first learns
/// about from a peer (i.e. an instance that was started elsewhere while this
/// node was already running).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum LateJoinPolicy {
    /// Seed the instance from the node's own local value (the right choice for
    /// plain averaging, maxima, minima and moments: the node's value is part
    /// of the aggregate).
    #[default]
    LocalValue,
    /// Seed the instance with a fixed state. The network-size estimator uses
    /// `FixedState(0.0)`: only the leader contributes `1.0`, every other node
    /// contributes `0.0`, so the average converges to `1/N`.
    FixedState(f64),
}

/// Configuration of the anti-entropy aggregation protocol on a node.
///
/// Build it with [`ProtocolConfig::builder`]:
///
/// ```
/// use aggregate_core::config::ProtocolConfig;
/// use aggregate_core::aggregate::AggregateKind;
///
/// let config = ProtocolConfig::builder()
///     .aggregate(AggregateKind::Average)
///     .cycles_per_epoch(30)
///     .cycle_length_ms(1_000)
///     .build()?;
/// assert_eq!(config.cycles_per_epoch(), 30);
/// # Ok::<(), aggregate_core::AggregationError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConfig {
    aggregate: AggregateKind,
    cycles_per_epoch: u32,
    cycle_length_ms: u64,
    late_join: LateJoinPolicy,
}

impl ProtocolConfig {
    /// Starts building a configuration with the defaults: averaging, 30 cycles
    /// per epoch (the value used for Figure 4), 1 s cycle length, local-value
    /// late join.
    pub fn builder() -> ProtocolConfigBuilder {
        ProtocolConfigBuilder::default()
    }

    /// The aggregate function the default instance computes.
    pub fn aggregate(&self) -> AggregateKind {
        self.aggregate
    }

    /// Number of protocol cycles in one epoch (the paper's parameter *k*,
    /// chosen from the required accuracy via the convergence rates of
    /// Section 3).
    pub fn cycles_per_epoch(&self) -> u32 {
        self.cycles_per_epoch
    }

    /// Length of one cycle (`Δt`) in milliseconds. Only the live runtime uses
    /// wall-clock time; the simulators count abstract cycles.
    pub fn cycle_length_ms(&self) -> u64 {
        self.cycle_length_ms
    }

    /// Policy for instances first heard about from a peer.
    pub fn late_join(&self) -> LateJoinPolicy {
        self.late_join
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            aggregate: AggregateKind::Average,
            cycles_per_epoch: 30,
            cycle_length_ms: 1_000,
            late_join: LateJoinPolicy::LocalValue,
        }
    }
}

/// Builder for [`ProtocolConfig`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtocolConfigBuilder {
    aggregate: Option<AggregateKind>,
    cycles_per_epoch: Option<u32>,
    cycle_length_ms: Option<u64>,
    late_join: Option<LateJoinPolicy>,
}

impl ProtocolConfigBuilder {
    /// Sets the aggregate function (default: [`AggregateKind::Average`]).
    pub fn aggregate(mut self, aggregate: AggregateKind) -> Self {
        self.aggregate = Some(aggregate);
        self
    }

    /// Sets the number of cycles per epoch (default: 30).
    pub fn cycles_per_epoch(mut self, cycles: u32) -> Self {
        self.cycles_per_epoch = Some(cycles);
        self
    }

    /// Sets the cycle length in milliseconds (default: 1000).
    pub fn cycle_length_ms(mut self, ms: u64) -> Self {
        self.cycle_length_ms = Some(ms);
        self
    }

    /// Sets the late-join policy (default: [`LateJoinPolicy::LocalValue`]).
    pub fn late_join(mut self, policy: LateJoinPolicy) -> Self {
        self.late_join = Some(policy);
        self
    }

    /// Finalises the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::InvalidConfig`] when `cycles_per_epoch` or
    /// `cycle_length_ms` is zero, or when a fixed late-join state is not
    /// finite.
    pub fn build(self) -> Result<ProtocolConfig, AggregationError> {
        let defaults = ProtocolConfig::default();
        let config = ProtocolConfig {
            aggregate: self.aggregate.unwrap_or(defaults.aggregate),
            cycles_per_epoch: self.cycles_per_epoch.unwrap_or(defaults.cycles_per_epoch),
            cycle_length_ms: self.cycle_length_ms.unwrap_or(defaults.cycle_length_ms),
            late_join: self.late_join.unwrap_or(defaults.late_join),
        };
        if config.cycles_per_epoch == 0 {
            return Err(AggregationError::invalid_config(
                "cycles_per_epoch must be positive",
            ));
        }
        if config.cycle_length_ms == 0 {
            return Err(AggregationError::invalid_config(
                "cycle_length_ms must be positive",
            ));
        }
        if let LateJoinPolicy::FixedState(state) = config.late_join {
            if !state.is_finite() {
                return Err(AggregationError::NonFiniteValue {
                    value: state,
                    what: "late join state",
                });
            }
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_settings() {
        let config = ProtocolConfig::default();
        assert_eq!(config.aggregate(), AggregateKind::Average);
        assert_eq!(config.cycles_per_epoch(), 30);
        assert_eq!(config.cycle_length_ms(), 1_000);
        assert_eq!(config.late_join(), LateJoinPolicy::LocalValue);
        let built = ProtocolConfig::builder().build().unwrap();
        assert_eq!(built, config);
    }

    #[test]
    fn builder_overrides_every_field() {
        let config = ProtocolConfig::builder()
            .aggregate(AggregateKind::Maximum)
            .cycles_per_epoch(10)
            .cycle_length_ms(250)
            .late_join(LateJoinPolicy::FixedState(0.0))
            .build()
            .unwrap();
        assert_eq!(config.aggregate(), AggregateKind::Maximum);
        assert_eq!(config.cycles_per_epoch(), 10);
        assert_eq!(config.cycle_length_ms(), 250);
        assert_eq!(config.late_join(), LateJoinPolicy::FixedState(0.0));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(ProtocolConfig::builder()
            .cycles_per_epoch(0)
            .build()
            .is_err());
        assert!(ProtocolConfig::builder()
            .cycle_length_ms(0)
            .build()
            .is_err());
        assert!(ProtocolConfig::builder()
            .late_join(LateJoinPolicy::FixedState(f64::NAN))
            .build()
            .is_err());
    }

    #[test]
    fn late_join_default_is_local_value() {
        assert_eq!(LateJoinPolicy::default(), LateJoinPolicy::LocalValue);
    }
}
