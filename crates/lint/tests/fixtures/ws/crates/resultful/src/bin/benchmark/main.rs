//! Fixture: the benchmark directory is the one sanctioned clock reader.

fn main() {
    let start = std::time::Instant::now();
    println!("{:?}", start.elapsed());
}
