//! Collection strategies: `vec(element, len_range)`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// The strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.len.generate(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// A vector of `element`-generated values with a length drawn from `len`.
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range");
    VecStrategy { element, len }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::any;

    #[test]
    fn lengths_span_the_range() {
        let mut rng = TestRng::new(11, 12);
        let s = vec(any::<u8>(), 1..5);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[s.generate(&mut rng).len()] = true;
        }
        assert!(!seen[0] && seen[1] && seen[2] && seen[3] && seen[4]);
    }
}
