//! Composable input generators.
//!
//! A generator is any `Fn(&mut Rng) -> T`; these helpers cover the common
//! shapes (uniform scalars, bounded vectors, text) and compose with
//! plain closures for everything else:
//!
//! ```
//! use dynawave_testkit::{check, gen, Rng};
//!
//! // A custom generator is just a closure.
//! let point = |rng: &mut Rng| (rng.range_f64(0.0, 1.0), rng.range_f64(0.0, 1.0));
//! check("points in unit square").run(point, |(x, y)| {
//!     if (0.0..1.0).contains(x) && (0.0..1.0).contains(y) {
//!         Ok(())
//!     } else {
//!         Err(format!("({x}, {y}) escaped"))
//!     }
//! });
//! ```

use crate::Rng;

/// Uniform `f64` in `[lo, hi)`.
///
/// ```
/// use dynawave_testkit::{gen, Rng};
/// let mut rng = Rng::new(1);
/// let x = gen::f64_in(2.0, 3.0)(&mut rng);
/// assert!((2.0..3.0).contains(&x));
/// ```
pub fn f64_in(lo: f64, hi: f64) -> impl Fn(&mut Rng) -> f64 {
    move |rng| rng.range_f64(lo, hi)
}

/// Uniform `u64` in `[lo, hi)`.
pub fn u64_in(lo: u64, hi: u64) -> impl Fn(&mut Rng) -> u64 {
    move |rng| rng.range_u64(lo, hi)
}

/// Uniform `usize` in `[lo, hi)`.
pub fn usize_in(lo: usize, hi: usize) -> impl Fn(&mut Rng) -> usize {
    move |rng| rng.range_usize(lo, hi)
}

/// `Vec<f64>` with uniform elements in `[lo, hi)` and length in
/// `[min_len, max_len]`.
///
/// ```
/// use dynawave_testkit::{gen, Rng};
/// let mut rng = Rng::new(1);
/// let v = gen::vec_f64(-1.0, 1.0, 3, 6)(&mut rng);
/// assert!((3..=6).contains(&v.len()));
/// ```
pub fn vec_f64(lo: f64, hi: f64, min_len: usize, max_len: usize) -> impl Fn(&mut Rng) -> Vec<f64> {
    vec_of(f64_in(lo, hi), min_len, max_len)
}

/// `Vec<T>` from an element generator, length uniform in
/// `[min_len, max_len]`.
pub fn vec_of<T, G>(element: G, min_len: usize, max_len: usize) -> impl Fn(&mut Rng) -> Vec<T>
where
    G: Fn(&mut Rng) -> T,
{
    move |rng| {
        let len = rng.range_usize(min_len, max_len + 1);
        (0..len).map(|_| element(rng)).collect()
    }
}

/// `Vec<f64>` whose length is one of the given power-of-two sizes — the
/// shape wavelet-transform properties need.
pub fn pow2_vec_f64(lo: f64, hi: f64, lengths: &[usize]) -> impl Fn(&mut Rng) -> Vec<f64> + '_ {
    assert!(!lengths.is_empty(), "need at least one length");
    move |rng| {
        let len = lengths[rng.range_usize(0, lengths.len())];
        (0..len).map(|_| rng.range_f64(lo, hi)).collect()
    }
}

/// A printable-ASCII byte soup string with length in `[min_len, max_len]`
/// — whitespace, digits, letters and punctuation in proportions that
/// exercise line-oriented parsers (newlines and spaces are drawn often so
/// multi-line structure actually appears).
pub fn ascii_soup(min_len: usize, max_len: usize) -> impl Fn(&mut Rng) -> String {
    move |rng| {
        let len = rng.range_usize(min_len, max_len + 1);
        (0..len)
            .map(|_| match rng.range_usize(0, 8) {
                0 => '\n',
                1 => ' ',
                2 => char::from(b'0' + rng.range_usize(0, 10) as u8),
                3 | 4 => char::from(b'a' + rng.range_usize(0, 26) as u8),
                5 => char::from(b'A' + rng.range_usize(0, 26) as u8),
                6 => ['.', '-', '+', 'e', '_', '"', '{', '}'][rng.range_usize(0, 8)],
                _ => char::from(rng.range_usize(0x21, 0x7f) as u8),
            })
            .collect()
    }
}

/// An arbitrary (but valid UTF-8) string: ASCII soup plus multi-byte
/// scalars, for parsers that must survive any text input.
pub fn utf8_soup(min_len: usize, max_len: usize) -> impl Fn(&mut Rng) -> String {
    move |rng| {
        let len = rng.range_usize(min_len, max_len + 1);
        (0..len)
            .map(|_| match rng.range_usize(0, 10) {
                0 => char::from_u32(rng.range_usize(0x80, 0x250) as u32).unwrap_or('¤'),
                1 => char::from_u32(rng.range_usize(0x2190, 0x2600) as u32).unwrap_or('→'),
                2 => '\n',
                _ => char::from(rng.range_usize(0x20, 0x7f) as u8),
            })
            .collect()
    }
}

/// A corrupted variant of `base`: one of truncation, byte replacement,
/// line duplication or line deletion, applied at a seeded position. The
/// result is always valid UTF-8 (corruption happens at `char`/line
/// granularity). The workhorse generator behind "no snapshot mutation may
/// panic the parser" fuzz corpora.
pub fn mutate(base: &str) -> impl Fn(&mut Rng) -> String + '_ {
    move |rng| {
        let chars: Vec<char> = base.chars().collect();
        if chars.is_empty() {
            return String::new();
        }
        match rng.range_usize(0, 4) {
            // Truncate at an arbitrary char boundary (kill signature).
            0 => chars[..rng.range_usize(0, chars.len())].iter().collect(),
            // Replace one char with printable-ASCII noise.
            1 => {
                let mut c = chars;
                let at = rng.range_usize(0, c.len());
                c[at] = char::from(rng.range_usize(0x20, 0x7f) as u8);
                c.into_iter().collect()
            }
            // Duplicate one line.
            2 => {
                let lines: Vec<&str> = base.lines().collect();
                if lines.is_empty() {
                    return base.to_string();
                }
                let at = rng.range_usize(0, lines.len());
                let mut out: Vec<&str> = Vec::with_capacity(lines.len() + 1);
                out.extend_from_slice(&lines[..=at]);
                out.extend_from_slice(&lines[at..]);
                out.join("\n")
            }
            // Delete one line.
            _ => {
                let lines: Vec<&str> = base.lines().collect();
                if lines.len() < 2 {
                    return String::new();
                }
                let at = rng.range_usize(0, lines.len());
                let mut out: Vec<&str> = Vec::with_capacity(lines.len() - 1);
                out.extend_from_slice(&lines[..at]);
                out.extend_from_slice(&lines[at + 1..]);
                out.join("\n")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_respects_length_bounds() {
        let mut rng = Rng::new(3);
        for _ in 0..200 {
            let v = vec_f64(0.0, 1.0, 2, 5)(&mut rng);
            assert!((2..=5).contains(&v.len()));
            assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }
    }

    #[test]
    fn pow2_vec_only_uses_listed_lengths() {
        let mut rng = Rng::new(5);
        for _ in 0..50 {
            let v = pow2_vec_f64(-1.0, 1.0, &[8, 16])(&mut rng);
            assert!(v.len() == 8 || v.len() == 16);
        }
    }

    #[test]
    fn soup_respects_bounds_and_is_utf8() {
        let mut rng = Rng::new(6);
        for _ in 0..100 {
            let a = ascii_soup(0, 40)(&mut rng);
            assert!(a.len() <= 40);
            assert!(a.chars().all(|c| c.is_ascii()));
            let u = utf8_soup(1, 40)(&mut rng);
            assert!((1..=40).contains(&u.chars().count()));
        }
    }

    #[test]
    fn mutate_never_returns_the_identity_class_only() {
        let base = "alpha\nbeta\ngamma\n";
        let mut rng = Rng::new(7);
        let gen = mutate(base);
        let mut changed = false;
        for _ in 0..50 {
            let m = gen(&mut rng);
            assert!(m.len() <= base.len() * 2);
            changed |= m != base;
        }
        assert!(changed, "mutation must actually corrupt sometimes");
    }
}
