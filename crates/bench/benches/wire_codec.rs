//! Wire-codec microbenchmarks backing the T11 front-end work: the
//! borrowed (zero-copy) decode against the owned decode, and encoding
//! into a reused buffer against allocating a fresh `String` per
//! response — the two codec-level savings the serving layer's warm path
//! is built on. The `sha256` group times the digest every frame pays
//! twice (auth-cache key, journal frame check) on both backends.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gridauthz_clock::SimDuration;
use gridauthz_gram::wire::{WireRequest, WireRequestRef, WireResponse};

fn bench_wire_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("t11_wire_codec");

    // The widest real request: SUBMIT with an RSL and an account.
    let request = WireRequest::Submit {
        rsl: "&(executable = TRANSP)(directory = /sandbox/test)(jobtag = NFC)(count = 4)".into(),
        account: Some("fusion".into()),
        work: SimDuration::from_mins(30),
    };
    let text = request.encode().expect("fixture encodes");

    group.bench_function("decode-borrowed", |b| {
        b.iter(|| {
            std::hint::black_box(WireRequestRef::decode(std::hint::black_box(&text)))
                .expect("fixture decodes")
        });
    });
    group.bench_function("decode-owned", |b| {
        b.iter(|| {
            std::hint::black_box(WireRequest::decode(std::hint::black_box(&text)))
                .expect("fixture decodes")
        });
    });

    // The widest real response: a six-header REPORT.
    let response = WireResponse::Report {
        contact: "gram://anl-cluster/jobs/00000042".into(),
        owner: "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu".into(),
        jobtag: Some("NFC".into()),
        account: "fusion".into(),
        state: "running".into(),
        executed_micros: 1_234_567,
    };

    group.bench_function("encode-fresh-string", |b| {
        b.iter(|| std::hint::black_box(response.encode().expect("fixture encodes")));
    });
    group.bench_function("encode-into-reused", |b| {
        let mut out = String::with_capacity(256);
        b.iter(|| {
            out.clear();
            response.encode_into(&mut out).expect("fixture encodes");
            std::hint::black_box(out.len())
        });
    });

    group.finish();
}

// The hasher's source compiled into this bench, so the crate-private
// backend selector is reachable without widening the library's API.
#[allow(dead_code)]
#[path = "../../credential/src/sha256.rs"]
mod sha256;

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    let mut backends = vec![("portable", sha256::Backend::Portable)];
    if sha256::Backend::detected() != sha256::Backend::Portable {
        backends.push(("sha-ni", sha256::Backend::detected()));
    }
    // 64 B: one block; 150 B: an audit rider frame; 648 B: a PEM
    // identity chain (the auth-cache key); 4 KiB: a bulk payload.
    for len in [64usize, 150, 648, 4096] {
        let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        for &(name, backend) in &backends {
            group.bench_with_input(BenchmarkId::new(name, len), &data, |b, data| {
                b.iter(|| sha256::sha256_with(backend, std::hint::black_box(data)));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_wire_codec, bench_sha256);
criterion_main!(benches);
