//! Boolean aggregates over indicator values.

use super::Aggregate;

/// Boolean OR: over indicator values in `{0, 1}`, both peers adopt the
/// maximum, so a single `1` anywhere in the network spreads to everyone.
///
/// This is the "is there any node with property P?" query expressed as an
/// aggregate; operationally it behaves exactly like an epidemic broadcast of
/// the bit, which the paper identifies as the well-studied special case of
/// `AGGREGATE_MAX`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BooleanOr;

impl Aggregate for BooleanOr {
    fn merge(&self, local: f64, remote: f64) -> f64 {
        local.max(remote)
    }

    fn init(&self, local_value: f64) -> f64 {
        if local_value != 0.0 {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "boolean-or"
    }
}

/// Boolean AND: over indicator values in `{0, 1}`, both peers adopt the
/// minimum, so a single `0` anywhere in the network spreads to everyone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BooleanAnd;

impl Aggregate for BooleanAnd {
    fn merge(&self, local: f64, remote: f64) -> f64 {
        local.min(remote)
    }

    fn init(&self, local_value: f64) -> f64 {
        if local_value != 0.0 {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "boolean-and"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn or_truth_table() {
        assert_eq!(BooleanOr.merge(0.0, 0.0), 0.0);
        assert_eq!(BooleanOr.merge(0.0, 1.0), 1.0);
        assert_eq!(BooleanOr.merge(1.0, 0.0), 1.0);
        assert_eq!(BooleanOr.merge(1.0, 1.0), 1.0);
    }

    #[test]
    fn and_truth_table() {
        assert_eq!(BooleanAnd.merge(0.0, 0.0), 0.0);
        assert_eq!(BooleanAnd.merge(0.0, 1.0), 0.0);
        assert_eq!(BooleanAnd.merge(1.0, 0.0), 0.0);
        assert_eq!(BooleanAnd.merge(1.0, 1.0), 1.0);
    }

    #[test]
    fn init_coerces_to_indicator() {
        assert_eq!(BooleanOr.init(0.0), 0.0);
        assert_eq!(BooleanOr.init(3.7), 1.0);
        assert_eq!(BooleanOr.init(0.2), 1.0);
        assert_eq!(BooleanOr.init(-2.0), 1.0);
        assert_eq!(BooleanAnd.init(0.0), 0.0);
        assert_eq!(BooleanAnd.init(0.0001), 1.0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(BooleanOr.name(), "boolean-or");
        assert_eq!(BooleanAnd.name(), "boolean-and");
    }

    #[test]
    fn estimates_are_identity() {
        assert_eq!(BooleanOr.estimate(1.0), 1.0);
        assert_eq!(BooleanAnd.estimate(0.0), 0.0);
    }
}
