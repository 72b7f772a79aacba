use crate::Rng;

pub trait Distribution<T> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

pub mod weighted {
    use super::Distribution;
    use crate::{Random, Rng};
    use std::borrow::Borrow;
    use std::fmt;
    use std::marker::PhantomData;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Error {
        InvalidInput,
        InvalidWeight,
        InsufficientNonZero,
    }

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                Error::InvalidInput => "no weights given",
                Error::InvalidWeight => "a weight is negative or not finite",
                Error::InsufficientNonZero => "all weights are zero",
            })
        }
    }

    impl std::error::Error for Error {}

    /// Draws index `i` with probability `weights[i] / sum(weights)` by binary
    /// search over the running sums.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WeightedIndex<X> {
        cumulative: Vec<f64>,
        _weight: PhantomData<X>,
    }

    // Only `f64` weights: one inherent impl lets `WeightedIndex::new(&vec)`
    // and `WeightedIndex::new(iter_of_f64)` both infer `X` with no annotation.
    impl WeightedIndex<f64> {
        pub fn new<I>(weights: I) -> Result<Self, Error>
        where
            I: IntoIterator,
            I::Item: Borrow<f64>,
        {
            let mut cumulative = Vec::new();
            let mut total = 0.0f64;
            for w in weights {
                let w: f64 = *w.borrow();
                if !(w >= 0.0 && w.is_finite()) {
                    return Err(Error::InvalidWeight);
                }
                total += w;
                cumulative.push(total);
            }
            if cumulative.is_empty() {
                return Err(Error::InvalidInput);
            }
            if total <= 0.0 {
                return Err(Error::InsufficientNonZero);
            }
            Ok(WeightedIndex {
                cumulative,
                _weight: PhantomData,
            })
        }
    }

    impl<X> Distribution<usize> for WeightedIndex<X> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
            let total = *self.cumulative.last().expect("at least one weight");
            let x = f64::random(rng) * total;
            // First index whose running sum exceeds x; zero-weight entries
            // repeat their predecessor's sum and are never chosen.
            self.cumulative
                .partition_point(|&c| c <= x)
                .min(self.cumulative.len() - 1)
        }
    }
}
