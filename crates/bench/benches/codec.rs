//! Criterion benchmarks for the control-plane codec: JSON encode and
//! decode of one content-shipping chunk frame (`ShipRequest::Chunk`, the
//! hex-encoded payload inside a JSON string) at 1, 4 and 16 KiB. Decode
//! time per byte should stay flat as the chunk grows; a reader that
//! rescans the document per character makes it grow with the chunk.

use cpms_model::ContentId;
use cpms_store::{fnv64, hex_encode, synthetic_body, ShipRequest};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    for kib in [1_u64, 4, 16] {
        let data = synthetic_body(ContentId(7), kib * 1024);
        let request = ShipRequest::Chunk {
            transfer: 1,
            index: 0,
            data: hex_encode(&data),
            checksum: fnv64(&data),
        };
        let text = serde_json::to_string(&request).expect("chunk frame encodes");

        group.bench_function(&format!("encode_chunk_{kib}k"), |b| {
            b.iter(|| black_box(serde_json::to_string(&request).expect("chunk frame encodes")));
        });
        group.bench_function(&format!("decode_chunk_{kib}k"), |b| {
            b.iter(|| {
                black_box(serde_json::from_str::<ShipRequest>(&text).expect("chunk frame decodes"))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
