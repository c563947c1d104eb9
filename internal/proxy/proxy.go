// Package proxy is the "hyp-proxy" test driver (paper §5): it plays
// the role of the kernel patch plus user-space library that lets tests
// allocate kernel memory and invoke pKVM hypercalls directly across
// the security boundary — with both well-behaved wrappers and fully
// arbitrary raw invocations, since the hypervisor must tolerate a
// malicious host.
package proxy

import (
	"fmt"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
	"ghostspec/internal/mem"
)

// Driver wraps one booted hypervisor with host-side conveniences: a
// host page allocator and typed hypercall wrappers.
type Driver struct {
	HV *hyp.Hypervisor
	// HostPool allocates host-owned frames for tests.
	HostPool *mem.Pool
}

// New builds a driver over hv, carving the host pool out of the
// host-allocatable range.
func New(hv *hyp.Hypervisor) *Driver {
	return &Driver{
		HV:       hv,
		HostPool: mem.NewPool("host", arch.PhysToPFN(hv.HostMemStart()), hv.HostMemPages()),
	}
}

// AllocPage takes a host frame, as the kernel side of the hyp-proxy
// would via the page allocator.
func (d *Driver) AllocPage() (arch.PFN, error) {
	pfn, ok := d.HostPool.Alloc()
	if !ok {
		return 0, fmt.Errorf("proxy: host memory exhausted")
	}
	return pfn, nil
}

// FreePage returns a host frame.
func (d *Driver) FreePage(pfn arch.PFN) { d.HostPool.Free(pfn) }

// HVC issues a raw hypercall on cpu with arbitrary arguments — the
// "arbitrary invocation" entry point used by random testing. It
// returns the x1 result, or the hypervisor panic if one occurred.
func (d *Driver) HVC(cpu int, id hyp.HC, args ...uint64) (int64, error) {
	regs := &d.HV.CPUs[cpu].HostRegs
	regs[0] = uint64(id)
	for i := range regs[1:] {
		regs[i+1] = 0
	}
	for i, a := range args {
		if i+1 >= arch.NumGPRs {
			break
		}
		regs[i+1] = a
	}
	if err := d.HV.HandleTrap(cpu, arch.ExitHVC); err != nil {
		return 0, err
	}
	return int64(regs[1]), nil
}

// errnoOf converts a hypercall result into an error (nil on success).
func errnoOf(ret int64) error {
	if ret >= 0 {
		return nil
	}
	return hyp.Errno(ret)
}

// Access performs a host memory access at ipa, taking and handling the
// stage 2 fault exactly as the hardware/kernel pair would: walk,
// fault to EL2, retry. It reports whether the access ultimately
// succeeded (false means the hypervisor injected the fault back — the
// host would have taken an exception).
func (d *Driver) Access(cpu int, ipa arch.IPA, write bool) (bool, error) {
	// Both translation attempts go through the software TLB: that is
	// what the MMU would do, and it is what makes stale entries after a
	// skipped TLBI observable.
	acc := arch.Access{Write: write}
	if _, fault := d.HV.TranslateHost(cpu, ipa, acc); fault == nil {
		return true, nil
	}
	d.HV.CPUs[cpu].Fault = arch.FaultInfo{Addr: ipa, Write: write}
	if err := d.HV.HandleTrap(cpu, arch.ExitMemAbort); err != nil {
		return false, err
	}
	_, fault := d.HV.TranslateHost(cpu, ipa, acc)
	return fault == nil, nil
}

// FaultAgain delivers a stage 2 fault for ipa to the hypervisor
// without first checking the host's translation — modelling the
// spurious fault a concurrent host CPU causes when it races another
// CPU's demand-mapping of the same page, or a hardware retry of a
// fault the hypervisor already resolved. A robust hypervisor treats
// an already-valid entry as spurious and returns; the paper's §6
// bug 4 panicked here. The returned error is the hypervisor panic,
// if one occurred.
func (d *Driver) FaultAgain(cpu int, ipa arch.IPA, write bool) error {
	d.HV.CPUs[cpu].Fault = arch.FaultInfo{Addr: ipa, Write: write}
	return d.HV.HandleTrap(cpu, arch.ExitMemAbort)
}

// Write64 writes host memory through the host's translation, faulting
// in the page on demand. It fails if the host does not own the page.
func (d *Driver) Write64(cpu int, ipa arch.IPA, v uint64) error {
	ok, err := d.Access(cpu, ipa, true)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("proxy: host write to %#x faulted", uint64(ipa))
	}
	d.HV.Mem.Write64(arch.PhysAddr(ipa), v)
	return nil
}

// Read64 reads host memory through the host's translation.
func (d *Driver) Read64(cpu int, ipa arch.IPA) (uint64, error) {
	ok, err := d.Access(cpu, ipa, false)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("proxy: host read of %#x faulted", uint64(ipa))
	}
	return d.HV.Mem.Read64(arch.PhysAddr(ipa)), nil
}

// ---------------------------------------------------------------------
// Well-behaved wrappers, one per hypercall.

// ShareHyp shares a host page with the hypervisor.
func (d *Driver) ShareHyp(cpu int, pfn arch.PFN) error {
	ret, err := d.HVC(cpu, hyp.HCHostShareHyp, uint64(pfn))
	if err != nil {
		return err
	}
	return errnoOf(ret)
}

// ShareHypRange shares nr contiguous pages through the phased
// hypercall (one locking phase per page).
func (d *Driver) ShareHypRange(cpu int, pfn arch.PFN, nr uint64) error {
	ret, err := d.HVC(cpu, hyp.HCHostShareHypRange, uint64(pfn), nr)
	if err != nil {
		return err
	}
	return errnoOf(ret)
}

// UnshareHyp revokes a share.
func (d *Driver) UnshareHyp(cpu int, pfn arch.PFN) error {
	ret, err := d.HVC(cpu, hyp.HCHostUnshareHyp, uint64(pfn))
	if err != nil {
		return err
	}
	return errnoOf(ret)
}

// DonateHyp donates nr contiguous pages to the hypervisor.
func (d *Driver) DonateHyp(cpu int, pfn arch.PFN, nr uint64) error {
	ret, err := d.HVC(cpu, hyp.HCHostDonateHyp, uint64(pfn), nr)
	if err != nil {
		return err
	}
	return errnoOf(ret)
}

// ReclaimPage reclaims one page of a torn-down VM.
func (d *Driver) ReclaimPage(cpu int, pfn arch.PFN) error {
	ret, err := d.HVC(cpu, hyp.HCHostReclaimPage, uint64(pfn))
	if err != nil {
		return err
	}
	return errnoOf(ret)
}

// InitVM creates a VM, allocating and donating the required pages from
// the host pool. It returns the handle and the donated range.
func (d *Driver) InitVM(cpu int, nrVCPUs int) (hyp.Handle, []arch.PFN, error) {
	need := hyp.InitVMDonation(nrVCPUs)
	pfns, err := d.allocContiguous(need)
	if err != nil {
		return 0, nil, err
	}
	ret, err := d.HVC(cpu, hyp.HCInitVM, uint64(nrVCPUs), uint64(pfns[0]), need)
	if err != nil {
		return 0, nil, err
	}
	if ret < 0 {
		return 0, nil, hyp.Errno(ret)
	}
	return hyp.Handle(ret), pfns, nil
}

// allocContiguous allocates until it finds nr physically contiguous
// frames (the simple pool allocates downward-contiguously in practice).
func (d *Driver) allocContiguous(nr uint64) ([]arch.PFN, error) {
	var run []arch.PFN
	var spill []arch.PFN
	defer func() {
		for _, p := range spill {
			d.HostPool.Free(p)
		}
	}()
	for attempts := 0; attempts < 4096; attempts++ {
		pfn, ok := d.HostPool.Alloc()
		if !ok {
			for _, p := range run {
				d.HostPool.Free(p)
			}
			return nil, fmt.Errorf("proxy: host memory exhausted for contiguous run")
		}
		if len(run) == 0 || pfn == run[len(run)-1]+1 {
			run = append(run, pfn)
		} else if len(run) > 0 && pfn == run[0]-1 {
			run = append([]arch.PFN{pfn}, run...)
		} else {
			spill = append(spill, run...)
			run = []arch.PFN{pfn}
		}
		if uint64(len(run)) == nr {
			return run, nil
		}
	}
	return nil, fmt.Errorf("proxy: could not find %d contiguous frames", nr)
}

// InitVCPU initialises one vCPU.
func (d *Driver) InitVCPU(cpu int, h hyp.Handle, idx int) error {
	ret, err := d.HVC(cpu, hyp.HCInitVCPU, uint64(h), uint64(idx))
	if err != nil {
		return err
	}
	return errnoOf(ret)
}

// TeardownVM destroys a VM.
func (d *Driver) TeardownVM(cpu int, h hyp.Handle) error {
	ret, err := d.HVC(cpu, hyp.HCTeardownVM, uint64(h))
	if err != nil {
		return err
	}
	return errnoOf(ret)
}

// VCPULoad / VCPUPut / VCPURun drive vCPU scheduling.
func (d *Driver) VCPULoad(cpu int, h hyp.Handle, idx int) error {
	ret, err := d.HVC(cpu, hyp.HCVCPULoad, uint64(h), uint64(idx))
	if err != nil {
		return err
	}
	return errnoOf(ret)
}

// VCPUPut saves and unloads the current vCPU.
func (d *Driver) VCPUPut(cpu int) error {
	ret, err := d.HVC(cpu, hyp.HCVCPUPut)
	if err != nil {
		return err
	}
	return errnoOf(ret)
}

// RunExit is the decoded outcome of one vcpu_run.
type RunExit struct {
	Code  int64
	IPA   arch.IPA // for mem-abort exits
	Write bool
}

// VCPURun runs the loaded vCPU through one guest event.
func (d *Driver) VCPURun(cpu int) (RunExit, error) {
	ret, err := d.HVC(cpu, hyp.HCVCPURun)
	if err != nil {
		return RunExit{}, err
	}
	if ret < 0 {
		return RunExit{}, hyp.Errno(ret)
	}
	regs := d.HV.CPUs[cpu].HostRegs
	return RunExit{Code: ret, IPA: arch.IPA(regs[2]), Write: regs[3] != 0}, nil
}

// MapGuest donates a host page into the loaded VM at gfn.
func (d *Driver) MapGuest(cpu int, pfn arch.PFN, gfn uint64) error {
	ret, err := d.HVC(cpu, hyp.HCHostMapGuest, uint64(pfn), gfn)
	if err != nil {
		return err
	}
	return errnoOf(ret)
}

// Topup allocates nr host pages, threads the donation list through
// them, and tops up the vCPU memcache. Returns the donated frames.
func (d *Driver) Topup(cpu int, h hyp.Handle, idx int, nr uint64) ([]arch.PFN, error) {
	// Capacity capped, not taken from nr: a replayed trace may claim
	// any count, and the loop stops when the host pool runs dry.
	pfns := make([]arch.PFN, 0, min(nr, 8))
	for i := uint64(0); i < nr; i++ {
		pfn, err := d.AllocPage()
		if err != nil {
			return nil, err
		}
		pfns = append(pfns, pfn)
	}
	for i, pfn := range pfns {
		next := uint64(0)
		if i+1 < len(pfns) {
			next = uint64(pfns[i+1].Phys())
		}
		// The host writes the list through its own mapping.
		if err := d.Write64(cpu, arch.IPA(pfn.Phys()), next); err != nil {
			return nil, err
		}
	}
	var head uint64
	if len(pfns) > 0 {
		head = uint64(pfns[0].Phys())
	}
	ret, err := d.HVC(cpu, hyp.HCTopupVCPUMemcache, uint64(h), uint64(idx), head, nr)
	if err != nil {
		return nil, err
	}
	if ret < 0 {
		return nil, hyp.Errno(ret)
	}
	return pfns, nil
}

// QueueGuestOp scripts the next guest event.
func (d *Driver) QueueGuestOp(h hyp.Handle, idx int, op hyp.GuestOp) bool {
	return d.HV.QueueGuestOp(h, idx, op)
}
