//! The served concept-query benchmark: seeded request streams with known
//! answers, the answer check, the closed-loop client, and the layer
//! replay behind `--trace 1`. `main.rs` wires them into one command.

pub mod check;
pub mod client;
pub mod gen;
pub mod replay;
pub mod rng;
pub mod verify;
