//! Light-weight features `f_L`.
//!
//! Table 1: "Composed of height, width, number of objects, averaged size
//! of the objects." In the real system the object count and sizes come
//! from the MBEK's most recent detection/tracking output — they are
//! available to the scheduler for free. Callers therefore pass the boxes
//! the kernel currently believes in, not ground truth.

use lr_video::BBox;

/// Width of the light feature vector ([`LightFeatures::to_array`]).
pub const DIM: usize = 4;

/// The four light-weight features.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LightFeatures {
    /// Source frame height in pixels.
    pub height: f32,
    /// Source frame width in pixels.
    pub width: f32,
    /// Number of currently tracked/detected objects.
    pub num_objects: f32,
    /// Mean object area as a fraction of the frame area (0 when empty).
    pub avg_size: f32,
}

impl LightFeatures {
    /// Builds light features from the frame geometry and the kernel's
    /// current boxes.
    pub fn from_boxes(width: f32, height: f32, boxes: &[BBox]) -> Self {
        let frame_area = (width * height).max(1.0);
        let avg_size = if boxes.is_empty() {
            0.0
        } else {
            boxes.iter().map(|b| b.area()).sum::<f32>() / boxes.len() as f32 / frame_area
        };
        Self {
            height,
            width,
            num_objects: boxes.len() as f32,
            avg_size,
        }
    }

    /// The normalized 4-dimensional feature vector fed to models.
    ///
    /// Dimensions are scaled to comparable ranges: height/width by 1080/1920,
    /// count by a nominal maximum of 16, size is already a fraction.
    pub fn to_array(self) -> [f32; DIM] {
        [
            self.height / 1080.0,
            self.width / 1920.0,
            self.num_objects / 16.0,
            self.avg_size,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_scene_has_zero_objects() {
        let f = LightFeatures::from_boxes(640.0, 480.0, &[]);
        assert_eq!(f.num_objects, 0.0);
        assert_eq!(f.avg_size, 0.0);
    }

    #[test]
    fn avg_size_is_area_fraction() {
        let boxes = [BBox::new(0.0, 0.0, 64.0, 48.0)];
        let f = LightFeatures::from_boxes(640.0, 480.0, &boxes);
        // 64*48 / (640*480) = 0.01.
        assert!((f.avg_size - 0.01).abs() < 1e-6);
        assert_eq!(f.num_objects, 1.0);
    }

    #[test]
    fn vector_has_four_normalized_dims() {
        let boxes = [
            BBox::new(0.0, 0.0, 100.0, 100.0),
            BBox::new(10.0, 10.0, 50.0, 50.0),
        ];
        let v = LightFeatures::from_boxes(1920.0, 1080.0, &boxes).to_array();
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|x| (0.0..=1.5).contains(x)));
    }
}
