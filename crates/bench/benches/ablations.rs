//! Ablation micro-benchmarks: the cost of the design choices DESIGN.md
//! calls out — the RM schedulability test variants behind static scaling
//! (O(n) Liu–Layland vs the quadratic scheduling-point test vs response
//! time analysis) and the look-ahead deferral computation.

use rtdvs_bench::microbench::bench;
use rtdvs_core::analysis::{rm_feasible_at, static_rm_point, RmTest};
use rtdvs_core::machine::Machine;
use rtdvs_core::policy::LaEdf;
use rtdvs_core::task::TaskId;
use rtdvs_core::time::Time;
use rtdvs_core::view::{InvState, SystemView, TaskView};
use rtdvs_taskgen::{generate, TaskGenSpec};

fn bench_rm_tests() {
    for n in [5usize, 20, 80, 128] {
        let spec = TaskGenSpec::new(n, 0.69).expect("valid spec");
        let tasks = generate(&spec, 41).expect("generator succeeds");
        for test in [
            RmTest::LiuLayland,
            RmTest::SchedulingPoints,
            RmTest::ResponseTime,
        ] {
            bench("rm_schedulability", &format!("{test:?}/{n}"), || {
                rm_feasible_at(&tasks, 0.75, test)
            });
        }
    }
}

fn bench_static_point_selection() {
    let machine = Machine::machine2();
    let spec = TaskGenSpec::new(20, 0.6).expect("valid spec");
    let tasks = generate(&spec, 43).expect("generator succeeds");
    for test in [RmTest::LiuLayland, RmTest::SchedulingPoints] {
        bench("static_rm_point", &format!("{test:?}"), || {
            static_rm_point(&tasks, &machine, test)
        });
    }
    // The soak-sized set every RM kernel admission and ccRM init decides.
    let machine = Machine::machine0();
    let spec = TaskGenSpec::new(128, 0.8).expect("valid spec");
    let tasks = generate(&spec, 24301).expect("generator succeeds");
    bench("static_rm_point", "SchedulingPoints/128", || {
        static_rm_point(&tasks, &machine, RmTest::SchedulingPoints)
    });
}

fn bench_la_edf_defer() {
    let machine = Machine::machine2();
    for n in [5usize, 20, 80, 128] {
        let spec = TaskGenSpec::new(n, 0.7).expect("valid spec");
        let tasks = generate(&spec, 47).expect("generator succeeds");
        let mut views: Vec<TaskView> = tasks
            .tasks()
            .iter()
            .map(|t| TaskView {
                invocation: 1,
                state: InvState::Active,
                executed: t.wcet() * 0.3,
                deadline: t.period(),
                next_release: t.period(),
            })
            .collect();
        let now = Time::from_ms(0.5);
        let mut policy = LaEdf::new();
        let sys = SystemView {
            now,
            tasks: &tasks,
            machine: &machine,
            views: &views,
        };
        bench("la_edf_defer", &n.to_string(), || {
            policy.work_due_before_next_deadline(&sys)
        });
        // The release path: before each call the earliest-deadline task is
        // re-released one period later, so the deferral re-sorts a moved
        // task as it does at every release in a run, not only the
        // already-sorted order of the loop above.
        bench("la_edf_defer", &format!("{n}/release"), || {
            if let Some((i, v)) = views
                .iter_mut()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.deadline.total_cmp(&b.deadline))
            {
                v.deadline += tasks.task(TaskId(i)).period();
                v.next_release = v.deadline;
            }
            let sys = SystemView {
                now,
                tasks: &tasks,
                machine: &machine,
                views: &views,
            };
            policy.work_due_before_next_deadline(&sys)
        });
    }
}

fn main() {
    bench_rm_tests();
    bench_static_point_selection();
    bench_la_edf_defer();
}
