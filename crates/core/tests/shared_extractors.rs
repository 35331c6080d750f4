//! The deep stand-ins are built once per process and shared by every
//! `FeatureService`. This binary's only test makes the first deep
//! extractions from several pool workers at once, so the one-time build
//! is raced, and checks every vector against a serial extraction.

use litereconfig::FeatureService;
use lr_features::FeatureKind;
use lr_pool::Pool;
use lr_video::{Video, VideoSpec};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn pooled_deep_extraction_matches_serial_bit_for_bit() {
    let video = Video::generate(VideoSpec {
        id: 0,
        seed: 404,
        width: 640.0,
        height: 480.0,
        num_frames: 8,
    });
    let items: Vec<(usize, FeatureKind)> = (0..video.len())
        .flat_map(|f| [(f, FeatureKind::ResNet50), (f, FeatureKind::MobileNetV2)])
        .collect();
    let extract = |svc: &mut FeatureService, &(frame, kind): &(usize, FeatureKind)| {
        let v = svc.extract_heavy(kind, &video, frame, None);
        bits(&v.expect("deep features come from the raster"))
    };

    let pooled = Pool::new(4).par_map_init(
        &items,
        || FeatureService::with_raster_size(32),
        |svc, _, item| extract(svc, item),
    );
    let mut serial_svc = FeatureService::with_raster_size(32);
    let serial: Vec<_> = items.iter().map(|i| extract(&mut serial_svc, i)).collect();
    assert_eq!(pooled, serial);
}
