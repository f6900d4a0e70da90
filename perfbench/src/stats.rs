//! Order statistics over wall-clock samples.

/// Quantile `q` in `[0, 1]` with linear interpolation between closest
/// ranks. `0.0` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The tail quantile a workload reports, fixed per workload from measured
/// run-to-run spread. Errors when the sample has fewer than ten samples
/// beyond it, the least a tail needs to mean anything.
pub fn tail(samples: &[f64], q: f64) -> Result<f64, String> {
    // the epsilon keeps 100 samples at p90 from flooring 9.999.. to 9
    let beyond = ((1.0 - q) * samples.len() as f64 + 1e-9).floor() as usize;
    if beyond < 10 {
        return Err(format!(
            "p{:.0} needs at least 10 samples beyond it; {} samples give {beyond}",
            q * 100.0,
            samples.len()
        ));
    }
    Ok(quantile(samples, q))
}

/// The operation walls of the fastest `1/keep_one_in` of the windows of
/// `window` consecutive operations.
///
/// On a shared host, co-tenant load slows stretches of a run (seconds
/// long on the 2-vCPU machine the bounds were set on, where the speed of
/// consecutive 0.1 s windows of one workload ranged over 2x). Load only
/// adds time, so the fastest windows estimate the program's own speed; a
/// change that slows every operation slows those windows too.
pub fn fastest(walls: &[f64], window: usize, keep_one_in: usize) -> Vec<f64> {
    let mut windows: Vec<&[f64]> = walls.chunks(window).filter(|w| w.len() == window).collect();
    windows.sort_by(|a, b| a.iter().sum::<f64>().total_cmp(&b.iter().sum::<f64>()));
    windows.truncate(windows.len().div_ceil(keep_one_in));
    windows.concat()
}
