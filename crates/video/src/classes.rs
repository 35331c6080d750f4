//! Object categories, mirroring the 30 classes of ILSVRC 2015 VID.

/// Number of foreground object classes (matches ILSVRC VID).
pub const NUM_CLASSES: usize = 30;

/// An object category.
///
/// # Examples
///
/// ```
/// use lr_video::ObjectClass;
///
/// let c = ObjectClass::new(6);
/// assert_eq!(c.index(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectClass(u8);

impl ObjectClass {
    /// Creates a class from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_CLASSES`.
    pub fn new(index: usize) -> Self {
        assert!(
            index < NUM_CLASSES,
            "class index {index} out of range ({NUM_CLASSES})"
        );
        Self(index as u8)
    }

    /// The class index in `[0, NUM_CLASSES)`.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// A deterministic per-class base color in RGB (0..1), used by the
    /// rasterizer so that pixel features carry class information.
    pub(crate) fn base_color(self) -> [f32; 3] {
        // Spread hues around the color wheel; vary saturation/value in two
        // rings so 30 classes stay distinguishable.
        let i = self.index();
        let hue = (i as f32 * 360.0 / NUM_CLASSES as f32) % 360.0;
        let (s, v) = if i.is_multiple_of(2) {
            (0.85, 0.9)
        } else {
            (0.6, 0.65)
        };
        hsv_to_rgb(hue, s, v)
    }
}

/// Converts HSV (h in degrees, s/v in 0..1) to RGB in 0..1.
pub(crate) fn hsv_to_rgb(h: f32, s: f32, v: f32) -> [f32; 3] {
    let c = v * s;
    let hp = (h / 60.0) % 6.0;
    let x = c * (1.0 - ((hp % 2.0) - 1.0).abs());
    let (r1, g1, b1) = match hp as u32 {
        0 => (c, x, 0.0),
        1 => (x, c, 0.0),
        2 => (0.0, c, x),
        3 => (0.0, x, c),
        4 => (x, 0.0, c),
        _ => (c, 0.0, x),
    };
    let m = v - c;
    [r1 + m, g1 + m, b1 + m]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_classes_like_vid() {
        assert_eq!(NUM_CLASSES, 30);
        assert_eq!((0..NUM_CLASSES).map(ObjectClass::new).count(), 30);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let _ = ObjectClass::new(30);
    }

    #[test]
    fn base_colors_are_in_unit_range() {
        for c in (0..NUM_CLASSES).map(ObjectClass::new) {
            for ch in c.base_color() {
                assert!((0.0..=1.0).contains(&ch), "{} out of range", ch);
            }
        }
    }

    #[test]
    fn base_colors_are_distinct_for_adjacent_classes() {
        let a = ObjectClass::new(0).base_color();
        let b = ObjectClass::new(1).base_color();
        assert_ne!(a, b);
    }

    #[test]
    fn hsv_primaries() {
        let red = hsv_to_rgb(0.0, 1.0, 1.0);
        assert!((red[0] - 1.0).abs() < 1e-6 && red[1].abs() < 1e-6);
        let green = hsv_to_rgb(120.0, 1.0, 1.0);
        assert!((green[1] - 1.0).abs() < 1e-6);
        let blue = hsv_to_rgb(240.0, 1.0, 1.0);
        assert!((blue[2] - 1.0).abs() < 1e-6);
    }
}
