//! Axis-aligned bounding boxes and overlap computations.

/// An axis-aligned bounding box in pixel coordinates.
///
/// Boxes are stored as top-left corner plus size. All detection,
/// tracking, and evaluation code in the workspace uses this type.
///
/// # Examples
///
/// ```
/// use lr_video::BBox;
///
/// let a = BBox::new(0.0, 0.0, 10.0, 10.0);
/// let b = BBox::new(5.0, 5.0, 10.0, 10.0);
/// let iou = a.iou(&b);
/// assert!((iou - 25.0 / 175.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Left edge.
    pub x: f32,
    /// Top edge.
    pub y: f32,
    /// Width (non-negative).
    pub w: f32,
    /// Height (non-negative).
    pub h: f32,
}

impl BBox {
    /// Creates a box from its top-left corner and size.
    ///
    /// Negative sizes are clamped to zero.
    pub fn new(x: f32, y: f32, w: f32, h: f32) -> Self {
        Self {
            x,
            y,
            w: w.max(0.0),
            h: h.max(0.0),
        }
    }

    /// Creates a box from its center point and size.
    pub fn from_center(cx: f32, cy: f32, w: f32, h: f32) -> Self {
        Self::new(cx - w / 2.0, cy - h / 2.0, w, h)
    }

    /// Box area.
    pub fn area(&self) -> f32 {
        self.w * self.h
    }

    /// Center point `(cx, cy)`.
    pub fn center(&self) -> (f32, f32) {
        (self.x + self.w / 2.0, self.y + self.h / 2.0)
    }

    /// Right edge.
    pub fn right(&self) -> f32 {
        self.x + self.w
    }

    /// Bottom edge.
    pub fn bottom(&self) -> f32 {
        self.y + self.h
    }

    /// Intersection area with another box.
    pub(crate) fn intersection_area(&self, other: &BBox) -> f32 {
        let ix = (self.right().min(other.right()) - self.x.max(other.x)).max(0.0);
        let iy = (self.bottom().min(other.bottom()) - self.y.max(other.y)).max(0.0);
        ix * iy
    }

    /// Intersection-over-union with another box, in `[0, 1]`.
    ///
    /// Returns 0 when both boxes are degenerate.
    pub fn iou(&self, other: &BBox) -> f32 {
        let inter = self.intersection_area(other);
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Clamps the box to lie within a `width x height` frame.
    ///
    /// The result keeps whatever portion of the box overlaps the frame; a
    /// box entirely outside collapses to a zero-area sliver on the border.
    pub fn clamped(&self, width: f32, height: f32) -> BBox {
        let x0 = self.x.clamp(0.0, width);
        let y0 = self.y.clamp(0.0, height);
        let x1 = self.right().clamp(0.0, width);
        let y1 = self.bottom().clamp(0.0, height);
        BBox::new(x0, y0, x1 - x0, y1 - y0)
    }

    /// True if the box has positive area.
    pub fn is_valid(&self) -> bool {
        self.w > 0.0 && self.h > 0.0 && self.x.is_finite() && self.y.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iou_of_identical_boxes_is_one() {
        let b = BBox::new(1.0, 2.0, 3.0, 4.0);
        assert!((b.iou(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn iou_of_disjoint_boxes_is_zero() {
        let a = BBox::new(0.0, 0.0, 1.0, 1.0);
        let b = BBox::new(5.0, 5.0, 1.0, 1.0);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn iou_is_symmetric() {
        let a = BBox::new(0.0, 0.0, 4.0, 4.0);
        let b = BBox::new(2.0, 1.0, 4.0, 5.0);
        assert!((a.iou(&b) - b.iou(&a)).abs() < 1e-6);
    }

    #[test]
    fn degenerate_boxes_have_zero_iou() {
        let a = BBox::new(0.0, 0.0, 0.0, 0.0);
        assert_eq!(a.iou(&a), 0.0);
    }

    #[test]
    fn clamp_keeps_inside_portion() {
        let b = BBox::new(-5.0, -5.0, 10.0, 10.0).clamped(20.0, 20.0);
        assert_eq!(b, BBox::new(0.0, 0.0, 5.0, 5.0));
    }

    #[test]
    fn clamp_fully_outside_collapses() {
        let b = BBox::new(30.0, 30.0, 5.0, 5.0).clamped(20.0, 20.0);
        assert_eq!(b.area(), 0.0);
        assert!(!b.is_valid());
    }

    #[test]
    fn from_center_round_trips() {
        let b = BBox::from_center(10.0, 20.0, 4.0, 6.0);
        assert_eq!(b.center(), (10.0, 20.0));
        assert_eq!((b.w, b.h), (4.0, 6.0));
    }

    #[test]
    fn negative_size_clamped_to_zero() {
        let b = BBox::new(0.0, 0.0, -3.0, 4.0);
        assert_eq!(b.w, 0.0);
    }
}
