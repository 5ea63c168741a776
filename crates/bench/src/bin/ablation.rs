//! Ablations of the design choices DESIGN.md calls out, in virtual time:
//! the instance count past the paper's 20, the window size, and the
//! lock bounce penalty the contention model charges.

use fairmpi::{Assignment, ProgressMode};
use fairmpi_vsim::{Machine, MachinePreset, MultirateSim, SimDesign};

fn multirate(pairs: usize, instances: usize, window: usize, machine: Machine) -> f64 {
    MultirateSim {
        machine,
        pairs,
        window,
        iterations: 4,
        design: SimDesign {
            instances,
            assignment: Assignment::Dedicated,
            progress: ProgressMode::Serial,
            ..SimDesign::baseline()
        },
        seed: 1,
        cost: None,
    }
    .run()
    .msg_rate_per_s
}

fn main() {
    let machine = Machine::preset(MachinePreset::Alembert);
    // Where does adding CRIs stop paying at 16 pairs?
    for instances in [1usize, 4, 16, 32, 64] {
        let rate = multirate(16, instances, 32, machine.clone());
        println!("ablation instances={instances}: {rate:.0} msg/s (virtual)");
    }
    // How much outstanding traffic keeps the pipeline busy?
    for window in [8usize, 32, 128] {
        let rate = multirate(8, 20, window, machine.clone());
        println!("ablation window={window}: {rate:.0} msg/s (virtual)");
    }
    // The contention model's key constant.
    for bounce in [0u64, 70, 300] {
        let mut machine = machine.clone();
        machine.sched.lock_bounce_ns = bounce;
        let rate = multirate(16, 1, 32, machine);
        println!("ablation bounce={bounce}ns (1 inst, 16 pairs): {rate:.0} msg/s (virtual)");
    }
}
