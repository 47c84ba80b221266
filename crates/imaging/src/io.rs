//! Netpbm image output (PGM/PPM).
//!
//! The simulator's outputs are images; binary PGM (P5) is the simplest
//! interchange format every viewer understands and needs no
//! dependency. A small false-color PPM writer visualizes error maps.

use crate::image::{ImageF64, ImageU8};
use std::io::{self, Write};

/// Writes an 8-bit image as binary PGM (P5). A `&mut` reference to any
/// `Write` works (e.g. `&mut Vec<u8>` or a file).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_pgm<W: Write>(image: &ImageU8, mut writer: W) -> io::Result<()> {
    write!(writer, "P5\n{} {}\n255\n", image.width(), image.height())?;
    writer.write_all(image.as_slice())?;
    Ok(())
}

/// Writes a unit-range float image as binary PGM after 8-bit rounding.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_pgm_f64<W: Write>(image: &ImageF64, writer: W) -> io::Result<()> {
    write_pgm(&image.to_u8(), writer)
}

/// Writes a signed error map as false-color binary PPM (P6): red for
/// positive error, blue for negative, scaled to `max_abs`.
///
/// # Errors
///
/// Propagates I/O errors; rejects a non-positive `max_abs`.
pub fn write_error_ppm<W: Write>(error: &ImageF64, max_abs: f64, mut writer: W) -> io::Result<()> {
    if max_abs <= 0.0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "max_abs must be positive",
        ));
    }
    write!(writer, "P6\n{} {}\n255\n", error.width(), error.height())?;
    let mut buf = Vec::with_capacity(error.len() * 3);
    for &v in error.as_slice() {
        let t = (v / max_abs).clamp(-1.0, 1.0);
        let mag = (t.abs() * 255.0).round() as u8;
        if t >= 0.0 {
            buf.extend_from_slice(&[mag, 0, 0]);
        } else {
            buf.extend_from_slice(&[0, 0, mag]);
        }
    }
    writer.write_all(&buf)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;
    use crate::scenes::Scene;

    #[test]
    fn p5_is_header_then_raw_pixels() {
        let img = Scene::gaussian_blobs(2).render(17, 9, 3).to_u8();
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        let header = b"P5\n17 9\n255\n";
        assert_eq!(&buf[..header.len()], header);
        assert_eq!(&buf[header.len()..], img.as_slice());
    }

    #[test]
    fn f64_writer_quantizes_like_to_u8() {
        let img = Scene::natural_like().render(8, 8, 1);
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_pgm_f64(&img, &mut a).unwrap();
        write_pgm(&img.to_u8(), &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn error_ppm_encodes_sign_in_channels() {
        let err = Image::from_vec(2, 1, vec![0.5, -0.5]);
        let mut buf = Vec::new();
        write_error_ppm(&err, 1.0, &mut buf).unwrap();
        // Header "P6\n2 1\n255\n" is 11 bytes; then RGB triples.
        let pixels = &buf[11..];
        assert_eq!(pixels, &[128, 0, 0, 0, 0, 128]);
        assert!(write_error_ppm(&err, 0.0, Vec::new()).is_err());
    }
}
