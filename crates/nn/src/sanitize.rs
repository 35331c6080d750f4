//! Debug-build numeric sanitizers.
//!
//! NaN and infinity propagate silently through matmuls and training
//! steps, surfacing only much later as a garbage accuracy table or a
//! scheduler that always picks branch 0. The
//! [`debug_assert_finite!`](crate::debug_assert_finite)
//! macro catches them at the op that *produced* them: it is wired into
//! the tensor kernels, dense-layer forward passes, and loss values, and
//! compiles to nothing in release builds (the bench and serving paths
//! pay zero cost).

/// Asserts, in debug builds only, that every value of the expression is
/// finite.
///
/// Accepts anything implementing [`AllFinite`]: an `f32`/`f64` scalar, a
/// slice of either, or a [`crate::Matrix`]. The `$what` argument names
/// the producing operation in the panic message.
///
/// ```
/// use lr_nn::debug_assert_finite;
/// let v = [0.0f32, 1.5, -2.0];
/// debug_assert_finite!(&v[..], "example vector");
/// ```
#[macro_export]
macro_rules! debug_assert_finite {
    ($value:expr, $what:expr) => {
        if cfg!(debug_assertions) {
            $crate::sanitize::assert_finite_impl(&$value, $what);
        }
    };
}

/// Values the sanitizer knows how to scan for non-finite entries.
pub trait AllFinite {
    /// Returns the first non-finite value found, if any.
    fn first_non_finite(&self) -> Option<f64>;
}

impl AllFinite for f32 {
    fn first_non_finite(&self) -> Option<f64> {
        (!self.is_finite()).then(|| f64::from(*self))
    }
}

impl AllFinite for f64 {
    fn first_non_finite(&self) -> Option<f64> {
        (!self.is_finite()).then_some(*self)
    }
}

impl AllFinite for [f32] {
    fn first_non_finite(&self) -> Option<f64> {
        self.iter().find(|v| !v.is_finite()).map(|v| f64::from(*v))
    }
}

impl AllFinite for [f64] {
    fn first_non_finite(&self) -> Option<f64> {
        self.iter().find(|v| !v.is_finite()).copied()
    }
}

impl AllFinite for crate::Matrix {
    fn first_non_finite(&self) -> Option<f64> {
        self.as_slice().first_non_finite()
    }
}

impl<T: AllFinite + ?Sized> AllFinite for &T {
    fn first_non_finite(&self) -> Option<f64> {
        (**self).first_non_finite()
    }
}

/// Panics if `value` contains a non-finite entry. Called by
/// [`debug_assert_finite!`]; not meant for direct use.
#[doc(hidden)]
pub fn assert_finite_impl<T: AllFinite + ?Sized>(value: &T, what: &str) {
    if let Some(bad) = value.first_non_finite() {
        panic!("non-finite value {bad} produced by {what}");
    }
}

#[cfg(test)]
mod tests {
    use crate::Matrix;

    #[test]
    fn finite_values_pass() {
        debug_assert_finite!(1.0f32, "scalar");
        debug_assert_finite!(&[0.0f64, -3.5][..], "slice");
        debug_assert_finite!(Matrix::zeros(2, 2), "matrix");
    }

    // The sanitizer compiles out of release builds by design, so the
    // panicking cases only exist in debug test builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite value NaN produced by unit test")]
    fn nan_is_caught_with_the_op_name() {
        debug_assert_finite!(f32::NAN, "unit test");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "produced by inf slice")]
    fn infinity_in_a_slice_is_caught() {
        debug_assert_finite!(&[1.0f32, f32::INFINITY][..], "inf slice");
    }
}
