//! Order statistics and the histogram reader for `stats prom`.

/// The `q` quantile (nearest rank) of `v`; 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// One Prometheus histogram summed over its label sets: cumulative
/// `(upper bound, count)` pairs, plus sum and count.
#[derive(Default, Debug)]
pub struct PromHist {
    pub buckets: Vec<(f64, f64)>,
    pub sum: f64,
    pub count: f64,
}

impl PromHist {
    /// Parse series `name` out of a `stats prom` payload, merging every
    /// label set (per-shard series become one distribution).
    pub fn parse(payload: &str, name: &str) -> PromHist {
        let mut h = PromHist::default();
        let mut by_le: Vec<(f64, f64)> = Vec::new();
        for line in payload.lines() {
            let Some((key, value)) = line.rsplit_once(' ') else { continue };
            let value: f64 = value.parse().unwrap_or(0.0);
            if let Some(labels) = key.strip_prefix(&format!("{name}_bucket")) {
                let le = labels
                    .split("le=\"")
                    .nth(1)
                    .and_then(|r| r.split('"').next())
                    .map_or(f64::INFINITY, |v| v.parse().unwrap_or(f64::INFINITY));
                match by_le.iter_mut().find(|(b, _)| *b == le) {
                    Some(slot) => slot.1 += value,
                    None => by_le.push((le, value)),
                }
            } else if key.starts_with(&format!("{name}_sum")) {
                h.sum += value;
            } else if key.starts_with(&format!("{name}_count")) {
                h.count += value;
            }
        }
        by_le.sort_by(|a, b| a.0.total_cmp(&b.0));
        h.buckets = by_le;
        h
    }

    /// Upper bound of the bucket holding the `q` quantile (log2 buckets,
    /// so this is within 2× of the true value).
    pub fn quantile_bound(&self, q: f64) -> f64 {
        let target = (q * self.count).ceil().max(1.0);
        self.buckets.iter().find(|(_, cum)| *cum >= target).map_or(0.0, |(le, _)| {
            if le.is_finite() {
                *le
            } else {
                self.buckets.iter().rev().nth(1).map_or(0.0, |b| b.0 * 2.0)
            }
        })
    }

    pub fn mean(&self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }
}

/// `migratory_<name> <value>` scalar from a prom payload.
pub fn prom_scalar(payload: &str, name: &str) -> f64 {
    payload
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}
