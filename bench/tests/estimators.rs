//! The estimators on fixed vectors.

use wga_ledger::stats::{fastest_mean, median};

#[test]
fn fastest_half_mean_keeps_the_fastest_half_rounded_up() {
    // K = 4: the two fastest.
    assert_eq!(fastest_mean(&[5.0, 9.0, 4.0, 6.0], 2), Some(4.5));
    // K = 6: the three fastest; the cold first pass drops out.
    assert_eq!(fastest_mean(&[30.0, 6.0, 5.0, 7.0, 4.0, 8.0], 2), Some(5.0));
    // K = 5: three of five.
    assert_eq!(fastest_mean(&[3.0, 1.0, 2.0, 100.0, 50.0], 2), Some(2.0));
    assert_eq!(fastest_mean(&[7.5], 2), Some(7.5));
    assert_eq!(fastest_mean(&[], 2), None);
}

#[test]
fn fastest_tenth_of_a_hundred_repetitions_is_ten() {
    let repetitions: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(fastest_mean(&repetitions, 10), Some(5.5));
    // 101 repetitions: eleven survive.
    let mut one_more = repetitions.clone();
    one_more.push(0.0);
    assert_eq!(fastest_mean(&one_more, 10), Some(5.0));
}

#[test]
fn a_disturbed_pass_does_not_move_the_fastest_half_mean() {
    let quiet = [5.0, 5.1, 5.2, 5.3, 5.4, 5.5];
    let disturbed = [5.0, 5.1, 5.2, 11.8, 5.4, 9.9];
    assert_eq!(fastest_mean(&quiet, 2), fastest_mean(&disturbed, 2));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[52.5, 53.0, 60.0, 52.0]), Some(52.75));
    assert_eq!(median(&[3.0, 1.0, 2.0, 9.0, 8.0, 7.0]), Some(5.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[]), None);
}
