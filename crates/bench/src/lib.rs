//! Shared helpers for the experiment binaries that regenerate the paper's
//! quantitative claims: the storage and adversary drivers
//! ([`experiments`]), the glue from a scenario run to the checkers
//! ([`verify`]), and the store's load harness ([`load`]) that the e10
//! binaries drive.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod load;
pub mod verify;

use std::fmt::Display;

/// Prints an aligned table: a header row and data rows of equal arity.
///
/// # Panics
///
/// Panics if a row's arity differs from the header's.
pub fn print_table<H: Display, C: Display>(title: &str, header: &[H], rows: &[Vec<C>]) {
    println!("### {title}");
    let header: Vec<String> = header
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            assert_eq!(r.len(), header.len(), "row arity mismatch");
            r.iter().map(std::string::ToString::to_string).collect()
        })
        .collect();
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r[i].len())
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&header));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for r in &rows {
        println!("{}", fmt_row(r));
    }
    println!();
}

/// Standard experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("==============================================================");
    println!("{id}: {claim}");
    println!("==============================================================");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".to_string(), "2".to_string()]],
        );
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        print_table("demo", &["a", "b"], &[vec!["1".to_string()]]);
    }
}
