//! `avq-codec`: block decode per coding mode and kernel, encode, in-block
//! insert/delete, density, allocations and the two-thread decode ratio.

use super::{median_ns, time_ns, Probe};
use crate::alloc;
use crate::driver::err;
use crate::metrics::Metrics;
use crate::stats::{median, median_f64, ratio};
use avq_codec::{
    compress_sorted, decompress_parallel, delete_from_block, insert_into_block, CodecOptions,
    CodingMode, DecodeKernel, DeleteOutcome,
};

/// Decode passes per mode; the median pass is reported.
const PASSES: usize = 3;
/// Blocks used for the in-block insert/delete timings.
const UPDATE_BLOCKS: usize = 64;

/// Times the codec on the sample.
pub fn probe(p: &mut Probe<'_>, m: &mut Metrics) -> Result<(), String> {
    let tuples = p.sample.len() as f64;
    let modes: [(&'static str, CodingMode, DecodeKernel); 5] = [
        (
            "codec.decode_ns_per_tuple.field-wise",
            CodingMode::FieldWise,
            DecodeKernel::Swar,
        ),
        (
            "codec.decode_ns_per_tuple.avq",
            CodingMode::Avq,
            DecodeKernel::Swar,
        ),
        (
            "codec.decode_ns_per_tuple.avq-chained",
            CodingMode::AvqChained,
            DecodeKernel::Swar,
        ),
        (
            "codec.decode_ns_per_tuple.avq-chained-bits",
            CodingMode::AvqChainedBits,
            DecodeKernel::Swar,
        ),
        (
            "codec.decode_ns_per_tuple.avq-chained.scalar",
            CodingMode::AvqChained,
            DecodeKernel::Scalar,
        ),
    ];
    for (name, mode, kernel) in modes {
        let options = CodecOptions {
            mode,
            kernel,
            ..CodecOptions::default()
        };
        let coded = compress_sorted(p.schema.clone(), &p.sample, options).map_err(err)?;
        let codec = coded.codec();
        let mut out = Vec::with_capacity(p.sample.len());
        let mut passes = Vec::with_capacity(PASSES);
        for _ in 0..PASSES {
            out.clear();
            let (ns, r) = time_ns(|| {
                coded
                    .blocks()
                    .iter()
                    .try_for_each(|b| codec.decode_into(b, &mut out))
            });
            r.map_err(err)?;
            passes.push(ns as f64 / tuples);
        }
        m.set(name, median_f64(&passes));
    }

    // The database's own configuration from here on.
    let options = CodecOptions::default();
    let mut encode = Vec::with_capacity(PASSES);
    let mut coded = None;
    for _ in 0..PASSES {
        let (ns, r) = time_ns(|| compress_sorted(p.schema.clone(), &p.sample, options));
        coded = Some(r.map_err(err)?);
        encode.push(ns as f64 / tuples);
    }
    let coded = coded.expect("PASSES > 0");
    m.set("codec.encode_ns_per_tuple", median_f64(&encode));
    m.set(
        "codec.bits_per_tuple",
        coded.stats().bytes_per_tuple() * 8.0,
    );

    let codec = coded.codec();
    let mut out = Vec::with_capacity(p.sample.len());
    let before = alloc::calls();
    coded
        .blocks()
        .iter()
        .try_for_each(|b| codec.decode_into(b, &mut out))
        .map_err(err)?;
    m.set(
        "codec.decode_allocs_per_tuple",
        (alloc::calls() - before) as f64 / tuples,
    );

    let (mut insert_ns, mut delete_ns) = (Vec::new(), Vec::new());
    for _ in 0..UPDATE_BLOCKS.min(coded.block_count()) {
        let i = p.rng.index(coded.block_count());
        let block = coded.block(i);
        let decoded = codec.decode(block).map_err(err)?;
        let victim = &decoded[p.rng.index(decoded.len())];
        let (ns, r) = time_ns(|| delete_from_block(&codec, block, victim));
        delete_ns.push(ns);
        if let DeleteOutcome::InPlace(smaller) = r.map_err(err)? {
            let (ns, r) =
                time_ns(|| insert_into_block(&codec, &smaller, victim, options.block_capacity));
            r.map_err(err)?;
            insert_ns.push(ns);
        }
    }
    m.set("codec.block_insert_us", median(&insert_ns) / 1e3);
    m.set("codec.block_delete_us", median(&delete_ns) / 1e3);

    let sequential = median_ns(PASSES, || {
        std::hint::black_box(coded.decompress().is_ok());
    });
    let two_threads = median_ns(PASSES, || {
        std::hint::black_box(decompress_parallel(&coded, 2).is_ok());
    });
    m.set(
        "codec.parallel_decode_speedup_2t",
        ratio(sequential, two_threads),
    );
    Ok(())
}
