package kamlssd

import (
	"encoding/binary"
	"hash/crc32"
)

// On-flash OOB layout for every page the firmware programs. The recovery
// scanner rebuilds the mapping tables from raw pages, so each page must be
// self-describing AND self-verifying — a power cut mid-program can leave a
// torn page (partial data, zeroed OOB) and a failed program leaves garbage;
// both must be detected and skipped, never parsed.
//
//	bytes [0:8)   record chunk bitmap (record pages; zero for index pages)
//	byte  [8]     page type (pageTypeRecord / pageTypeIndex)
//	bytes [9:11)  magic "KM" — absent on torn/garbage pages
//	bytes [11:15) CRC32 (IEEE) of the full padded page data
const (
	oobTypeOff  = 8
	oobMagicOff = 9
	oobCRCOff   = 11
	oobLen      = 15
)

var oobMagic = [2]byte{'K', 'M'}

// buildOOB returns a fresh full-size OOB area for a page without records
// (bitmap zero). data is the page payload, padded with zeros to the page
// size for the CRC so the checksum matches what a later full-page read
// returns.
func (d *Device) buildOOB(ptype byte, data []byte) []byte {
	oob := make([]byte, d.fc.OOBSize)
	d.sealOOB(oob, ptype, data)
	return oob
}

// sealOOB fills in the type, magic and CRC of an OOB area in place,
// leaving its first 8 bytes (the record chunk bitmap) as they are.
func (d *Device) sealOOB(oob []byte, ptype byte, data []byte) {
	oob[oobTypeOff] = ptype
	oob[oobMagicOff] = oobMagic[0]
	oob[oobMagicOff+1] = oobMagic[1]
	crc := crc32.ChecksumIEEE(data)
	for pad := d.fc.PageSize - len(data); pad > 0; {
		n := min(pad, len(zeroPad))
		crc = crc32.Update(crc, crc32.IEEETable, zeroPad[:n])
		pad -= n
	}
	binary.LittleEndian.PutUint32(oob[oobCRCOff:oobCRCOff+4], crc)
}

// zeroPad feeds a short page's zero padding to the CRC without
// allocating it.
var zeroPad [1024]byte

// checkOOB verifies a scanned page's magic and CRC against its data and
// returns the page type. ok=false means the page is torn, garbage, or
// pre-dates the integrity layout, and must not be parsed.
func checkOOB(oob, data []byte) (ptype byte, ok bool) {
	if len(oob) < oobLen {
		return 0, false
	}
	if oob[oobMagicOff] != oobMagic[0] || oob[oobMagicOff+1] != oobMagic[1] {
		return 0, false
	}
	if crc32.ChecksumIEEE(data) != binary.LittleEndian.Uint32(oob[oobCRCOff:oobCRCOff+4]) {
		return 0, false
	}
	return oob[oobTypeOff], true
}
